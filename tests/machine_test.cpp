#include <gtest/gtest.h>

#include <functional>

#include "isa/assembler.hpp"
#include "machine/cpu.hpp"
#include "machine/hostcall.hpp"
#include "obs/obs.hpp"

namespace dsprof::machine {
namespace {

using isa::Assembler;
using isa::Cond;
using isa::Instr;
using isa::Op;
using namespace isa;  // register names

/// Assemble a small program and prepare a CPU to run it.
class TestMachine {
 public:
  explicit TestMachine(const std::function<void(Assembler&)>& build, CpuConfig cfg = {}) {
    Assembler a(mem::kTextBase);
    build(a);
    // Terminate with exit(%o0) in case the program falls through.
    a.emit(hcall(static_cast<i64>(HostCall::Exit)));
    auto out = a.finish();
    mem_.add_segment({"text", mem::SegKind::Text, mem::kTextBase,
                      round_up(out.words.size() * 4, 8), false, true});
    mem_.add_segment({"data", mem::SegKind::Data, mem::kDataBase, 0x10000, true, false});
    mem_.add_segment({"heap", mem::SegKind::Heap, mem::kHeapBase, 0x1000000, true, false});
    mem_.add_segment({"stack", mem::SegKind::Stack, mem::kStackTop - mem::kStackSize,
                      mem::kStackSize + 0x4000, true, false});
    mem_.write_bytes(mem::kTextBase, out.words.data(), out.words.size() * 4);
    cpu_ = std::make_unique<Cpu>(mem_, cfg);
    cpu_->set_pc(mem::kTextBase);
  }

  RunResult run(u64 max = 100000) { return cpu_->run(max); }
  Cpu& cpu() { return *cpu_; }
  mem::Memory& mem() { return mem_; }

 private:
  mem::Memory mem_;
  std::unique_ptr<Cpu> cpu_;
};

/// Run a straight-line instruction sequence and return the final value of o0.
u64 eval(const std::vector<Instr>& prog) {
  TestMachine tm([&](Assembler& a) {
    for (const auto& i : prog) a.emit(i);
  });
  const RunResult r = tm.run();
  EXPECT_TRUE(r.halted);
  return static_cast<u64>(r.exit_code);
}

TEST(Exec, Arithmetic) {
  EXPECT_EQ(eval({mov_ri(O0, 5), alu_ri(Op::ADD, O0, O0, 7)}), 12u);
  EXPECT_EQ(eval({mov_ri(O0, 5), alu_ri(Op::SUB, O0, O0, 7)}), static_cast<u64>(-2));
  EXPECT_EQ(eval({mov_ri(O0, 6), alu_ri(Op::MULX, O0, O0, -7)}), static_cast<u64>(-42));
  EXPECT_EQ(eval({mov_ri(O0, -41), alu_ri(Op::SDIVX, O0, O0, 7)}), static_cast<u64>(-5));
  EXPECT_EQ(eval({mov_ri(O1, -1), alu_ri(Op::SRL, O0, O1, 60)}), 15u);
  EXPECT_EQ(eval({mov_ri(O1, -16), alu_ri(Op::SRA, O0, O1, 2)}), static_cast<u64>(-4));
  EXPECT_EQ(eval({mov_ri(O1, 3), alu_ri(Op::SLL, O0, O1, 4)}), 48u);
  EXPECT_EQ(eval({mov_ri(O1, 0b1100), alu_ri(Op::AND, O0, O1, 0b1010)}), 0b1000u);
  EXPECT_EQ(eval({mov_ri(O1, 0b1100), alu_ri(Op::ANDN, O0, O1, 0b1010)}), 0b0100u);
  EXPECT_EQ(eval({mov_ri(O1, 0b1100), alu_ri(Op::XOR, O0, O1, 0b1010)}), 0b0110u);
}

TEST(Exec, UdivxUnsigned) {
  // -1 as unsigned divided by 2.
  EXPECT_EQ(eval({mov_ri(O1, -1), alu_ri(Op::UDIVX, O0, O1, 2)}), 0x7FFFFFFFFFFFFFFFull);
}

TEST(Exec, G0IsAlwaysZero) {
  EXPECT_EQ(eval({mov_ri(G0, 55), mov_rr(O0, G0)}), 0u);
}

TEST(Exec, Sethi) {
  EXPECT_EQ(eval({sethi(O0, 0x1)}), u64{1} << 14);
}

TEST(Exec, DivByZeroFaults) {
  TestMachine tm([](Assembler& a) {
    a.emit(mov_ri(O1, 1));
    a.emit(alu_ri(Op::SDIVX, O0, O1, 0));
  });
  EXPECT_THROW(tm.run(), Error);
}

TEST(Exec, IllegalInstructionFaults) {
  mem::Memory m;
  m.add_segment({"text", mem::SegKind::Text, mem::kTextBase, 0x100, false, true});
  const u32 bad = 0;
  m.write_bytes(mem::kTextBase, &bad, 4);
  Cpu cpu(m, CpuConfig{});
  cpu.set_pc(mem::kTextBase);
  EXPECT_THROW(cpu.run(10), Error);
}

TEST(Exec, LoadStoreWidths) {
  EXPECT_EQ(eval({
                mov_ri(O1, 0),  // address base built below
                sethi(O2, mem::kHeapBase >> 14),
                mov_ri(O3, -2),  // 0xFFFF...FE
                store_ri(Op::STX, O3, O2, 0),
                load_ri(Op::LDUB, O0, O2, 0),  // low byte, zero-extended
            }),
            0xFEu);
  EXPECT_EQ(eval({
                sethi(O2, mem::kHeapBase >> 14),
                mov_ri(O3, -2),
                store_ri(Op::STX, O3, O2, 0),
                load_ri(Op::LDUW, O0, O2, 0),
            }),
            0xFFFFFFFEu);
}

TEST(Exec, ConditionalBranches) {
  struct Case {
    i64 a, b;
    Cond cond;
    bool taken;
  };
  const Case cases[] = {
      {1, 2, Cond::L, true},    {2, 1, Cond::L, false},   {1, 1, Cond::LE, true},
      {2, 1, Cond::G, true},    {1, 1, Cond::G, false},   {1, 1, Cond::GE, true},
      {1, 1, Cond::E, true},    {1, 2, Cond::E, false},   {1, 2, Cond::NE, true},
      {-1, 1, Cond::L, true},   {-1, 1, Cond::LU, false}, // unsigned: -1 is huge
      {1, 2, Cond::LU, true},   {1, 2, Cond::GU, false},  {2, 1, Cond::GU, true},
      {1, 1, Cond::LEU, true},  {1, 1, Cond::GEU, true},  {1, 2, Cond::A, true},
  };
  for (const Case& c : cases) {
    TestMachine tm([&](Assembler& a) {
      auto l = a.new_label("taken");
      a.emit(mov_ri(O1, c.a));
      a.emit(mov_ri(O2, c.b));
      a.emit(cmp_rr(O1, O2));
      a.emit_branch(c.cond, l);
      a.emit(nop());          // delay slot
      a.emit(mov_ri(O0, 0));  // fall-through
      a.emit(hcall(0));
      a.bind(l);
      a.emit(mov_ri(O0, 1));
    });
    const RunResult r = tm.run();
    EXPECT_EQ(r.exit_code, c.taken ? 1 : 0)
        << "a=" << c.a << " b=" << c.b << " cond=" << isa::cond_name(c.cond);
  }
}

TEST(Exec, DelaySlotExecutesOnTakenBranch) {
  TestMachine tm([](Assembler& a) {
    auto l = a.new_label();
    a.emit(mov_ri(O0, 0));
    a.emit_branch(Cond::A, l);
    a.emit(alu_ri(Op::ADD, O0, O0, 5));  // delay slot: must execute
    a.emit(alu_ri(Op::ADD, O0, O0, 100));  // skipped
    a.bind(l);
  });
  EXPECT_EQ(tm.run().exit_code, 5);
}

TEST(Exec, AnnulledSlotSkippedWhenNotTaken) {
  TestMachine tm([](Assembler& a) {
    auto l = a.new_label();
    a.emit(mov_ri(O0, 0));
    a.emit(cmp_ri(O0, 99));           // not equal
    a.emit_branch(Cond::E, l, /*annul=*/true);
    a.emit(alu_ri(Op::ADD, O0, O0, 5));  // annulled: must NOT execute
    a.emit(alu_ri(Op::ADD, O0, O0, 1));
    a.bind(l);
  });
  EXPECT_EQ(tm.run().exit_code, 1);
}

TEST(Exec, AnnulledSlotExecutesWhenTaken) {
  TestMachine tm([](Assembler& a) {
    auto l = a.new_label();
    a.emit(mov_ri(O0, 0));
    a.emit(cmp_ri(O0, 0));
    a.emit_branch(Cond::E, l, /*annul=*/true);
    a.emit(alu_ri(Op::ADD, O0, O0, 5));  // conditional+annul, taken: executes
    a.emit(alu_ri(Op::ADD, O0, O0, 100));
    a.bind(l);
  });
  EXPECT_EQ(tm.run().exit_code, 5);
}

TEST(Exec, BaAnnulAlwaysSkipsSlot) {
  TestMachine tm([](Assembler& a) {
    auto l = a.new_label();
    a.emit(mov_ri(O0, 0));
    a.emit_branch(Cond::A, l, /*annul=*/true);
    a.emit(alu_ri(Op::ADD, O0, O0, 5));  // ba,a: always annulled
    a.bind(l);
  });
  EXPECT_EQ(tm.run().exit_code, 0);
}

TEST(Exec, CallAndRet) {
  TestMachine tm([](Assembler& a) {
    auto fn = a.new_label("fn");
    a.emit(mov_ri(O0, 1));
    a.emit_call(fn);
    a.emit(nop());                        // delay slot
    a.emit(alu_ri(Op::ADD, O0, O0, 100));  // after return
    a.emit(hcall(0));
    a.bind(fn);
    a.emit(alu_ri(Op::ADD, O0, O0, 10));
    a.emit(ret());
    a.emit(nop());
  });
  EXPECT_EQ(tm.run().exit_code, 111);
}

TEST(Exec, HostCallsOutputAndTrace) {
  TestMachine tm([](Assembler& a) {
    a.emit(mov_ri(O0, 'h'));
    a.emit(hcall(static_cast<i64>(HostCall::PutC)));
    a.emit(mov_ri(O0, -42));
    a.emit(hcall(static_cast<i64>(HostCall::PutI)));
    a.emit(mov_ri(O0, 777));
    a.emit(hcall(static_cast<i64>(HostCall::Trace)));
    a.emit(mov_ri(O1, 32));
    a.emit(mov_ri(O0, 0x3000));
    a.emit(hcall(static_cast<i64>(HostCall::NoteAlloc)));
    a.emit(mov_ri(O0, 0));
  });
  tm.run();
  EXPECT_EQ(tm.cpu().output(), "h-42");
  ASSERT_EQ(tm.cpu().trace().size(), 1u);
  EXPECT_EQ(tm.cpu().trace()[0], 777);
  ASSERT_EQ(tm.cpu().allocations().size(), 1u);
  EXPECT_EQ(tm.cpu().allocations()[0].addr, 0x3000u);
  EXPECT_EQ(tm.cpu().allocations()[0].size, 32u);
  // The site PC is the NoteAlloc hcall's own PC (word 7 of the program).
  EXPECT_EQ(tm.cpu().allocations()[0].site_pc, tm.cpu().allocations()[0].site_pc & ~u64{3});
  EXPECT_NE(tm.cpu().allocations()[0].site_pc, 0u);
}

TEST(Exec, LoopCountsInstructionsAndCycles) {
  // Loop 100 times: head cmp/branch + body.
  TestMachine tm([](Assembler& a) {
    auto head = a.new_label();
    auto end = a.new_label();
    a.emit(mov_ri(O1, 100));
    a.emit(mov_ri(O0, 0));
    a.bind(head);
    a.emit(cmp_ri(O1, 0));
    a.emit_branch(Cond::E, end);
    a.emit(nop());
    a.emit(alu_ri(Op::SUB, O1, O1, 1));
    a.emit(alu_ri(Op::ADD, O0, O0, 2));
    a.emit_branch(Cond::A, head);
    a.emit(nop());
    a.bind(end);
  });
  const RunResult r = tm.run();
  EXPECT_EQ(r.exit_code, 200);
  EXPECT_GT(r.instructions, 600u);
  EXPECT_GE(r.cycles, r.instructions);
}

TEST(Counters, EventTotalsTrackLoads) {
  TestMachine tm([](Assembler& a) {
    auto head = a.new_label();
    auto end = a.new_label();
    a.emit(sethi(O2, mem::kHeapBase >> 14));
    a.emit(mov_ri(O1, 1000));
    a.bind(head);
    a.emit(cmp_ri(O1, 0));
    a.emit_branch(Cond::E, end);
    a.emit(nop());
    a.emit(load_ri(Op::LDX, O3, O2, 0));  // same address: hits after first
    a.emit(alu_ri(Op::SUB, O1, O1, 1));
    a.emit_branch(Cond::A, head);
    a.emit(nop());
    a.bind(end);
    a.emit(mov_ri(O0, 0));
  });
  tm.run(100000);
  EXPECT_EQ(tm.cpu().event_total(HwEvent::DC_rd_miss), 1u);
  EXPECT_EQ(tm.cpu().event_total(HwEvent::EC_rd_miss), 1u);
  EXPECT_EQ(tm.cpu().event_total(HwEvent::DTLB_miss), 1u);
  EXPECT_GT(tm.cpu().event_total(HwEvent::Instr_cnt), 6000u);
  EXPECT_EQ(tm.cpu().event_total(HwEvent::Instr_cnt), tm.cpu().total_instructions());
  EXPECT_EQ(tm.cpu().event_total(HwEvent::Cycle_cnt), tm.cpu().total_cycles());
}

TEST(Counters, PicConstraintsEnforced) {
  mem::Memory m;
  m.add_segment({"text", mem::SegKind::Text, mem::kTextBase, 0x100, false, true});
  Cpu cpu(m, CpuConfig{});
  EXPECT_THROW(cpu.configure_pic(1, HwEvent::EC_stall_cycles, 100), Error);  // PIC0 only
  EXPECT_THROW(cpu.configure_pic(0, HwEvent::EC_rd_miss, 100), Error);       // PIC1 only
  EXPECT_NO_THROW(cpu.configure_pic(0, HwEvent::EC_stall_cycles, 100));
  EXPECT_NO_THROW(cpu.configure_pic(1, HwEvent::EC_rd_miss, 100));
  EXPECT_THROW(cpu.configure_pic(0, HwEvent::Cycle_cnt, 0), Error);  // zero interval
}

TEST(Counters, OverflowCountMatchesInterval) {
  std::vector<OverflowDelivery> deliveries;
  TestMachine tm([](Assembler& a) {
    auto head = a.new_label();
    auto end = a.new_label();
    a.emit(mov_ri(O1, 5000));
    a.bind(head);
    a.emit(cmp_ri(O1, 0));
    a.emit_branch(Cond::E, end);
    a.emit(nop());
    a.emit(alu_ri(Op::SUB, O1, O1, 1));
    a.emit_branch(Cond::A, head);
    a.emit(nop());
    a.bind(end);
    a.emit(mov_ri(O0, 0));
  });
  tm.cpu().configure_pic(0, HwEvent::Instr_cnt, 997);
  tm.cpu().on_overflow = [&](const OverflowDelivery& d) { deliveries.push_back(d); };
  tm.run(1000000);
  const u64 instrs = tm.cpu().total_instructions();
  const u64 expected = instrs / 997;
  EXPECT_GE(deliveries.size() + 1, expected);
  EXPECT_LE(deliveries.size(), expected + 1);
  for (const auto& d : deliveries) {
    EXPECT_EQ(d.event, HwEvent::Instr_cnt);
    EXPECT_EQ(d.interval, 997u);
    EXPECT_EQ(d.pic, 0u);
  }
}

TEST(Counters, DtlbMissesArePrecise) {
  // DTLB skid is 0: the delivered PC is the instruction right after the
  // triggering load (in execution order), and ground truth confirms it.
  std::vector<OverflowDelivery> deliveries;
  TestMachine tm([](Assembler& a) {
    auto head = a.new_label();
    auto end = a.new_label();
    a.emit(sethi(O2, mem::kHeapBase >> 14));
    a.emit(mov_ri(O1, 300));
    a.emit(mov_ri(O4, 0));
    a.bind(head);
    a.emit(cmp_ri(O1, 0));
    a.emit_branch(Cond::E, end);
    a.emit(nop());
    // Each iteration touches a new page: every load DTLB-misses eventually.
    a.emit(load_ri(Op::LDX, O3, O2, 0));
    a.emit(sethi(O5, 1));  // 16384 = 2 pages of 8K
    a.emit(alu_rr(Op::ADD, O2, O2, O5));
    a.emit(alu_ri(Op::SUB, O1, O1, 1));
    a.emit_branch(Cond::A, head);
    a.emit(nop());
    a.bind(end);
    a.emit(mov_ri(O0, 0));
  });
  tm.cpu().configure_pic(1, HwEvent::DTLB_miss, 7);
  tm.cpu().on_overflow = [&](const OverflowDelivery& d) { deliveries.push_back(d); };
  tm.run(1000000);
  ASSERT_GT(deliveries.size(), 10u);
  const auto& truth = tm.cpu().truth_log();
  ASSERT_EQ(truth.size(), deliveries.size());
  for (size_t i = 0; i < deliveries.size(); ++i) {
    EXPECT_EQ(truth[i].skid, 0u);
    // Delivered PC is the next instruction after the triggering load.
    EXPECT_EQ(deliveries[i].delivered_pc, truth[i].trigger_pc + 4);
    EXPECT_TRUE(truth[i].ea_valid);
  }
}

TEST(Counters, SkidWithinConfiguredBounds) {
  TestMachine tm(
      [](Assembler& a) {
        auto head = a.new_label();
        auto end = a.new_label();
        a.emit(sethi(O2, mem::kHeapBase >> 14));
        a.emit(mov_ri(O1, 2000));
        a.bind(head);
        a.emit(cmp_ri(O1, 0));
        a.emit_branch(Cond::E, end);
        a.emit(nop());
        a.emit(load_ri(Op::LDX, O3, O2, 0));
        a.emit(alu_ri(Op::ADD, O2, O2, 64));
        a.emit(alu_ri(Op::SUB, O1, O1, 1));
        a.emit_branch(Cond::A, head);
        a.emit(nop());
        a.bind(end);
        a.emit(mov_ri(O0, 0));
      });
  tm.cpu().configure_pic(0, HwEvent::DC_rd_miss, 13);
  std::vector<OverflowDelivery> deliveries;
  tm.cpu().on_overflow = [&](const OverflowDelivery& d) { deliveries.push_back(d); };
  tm.run(1000000);
  ASSERT_GT(deliveries.size(), 20u);
  const HwEventInfo& info = hw_event_info(HwEvent::DC_rd_miss);
  for (const auto& t : tm.cpu().truth_log()) {
    EXPECT_GE(t.skid, info.skid_min);
    EXPECT_LE(t.skid, info.skid_max);
  }
}

TEST(Counters, ClockProfilingSamples) {
  TestMachine tm([](Assembler& a) {
    auto head = a.new_label();
    auto end = a.new_label();
    a.emit(mov_ri(O1, 16000));
    a.bind(head);
    a.emit(cmp_ri(O1, 0));
    a.emit_branch(Cond::E, end);
    a.emit(nop());
    a.emit(alu_ri(Op::SUB, O1, O1, 1));
    a.emit_branch(Cond::A, head);
    a.emit(nop());
    a.bind(end);
    a.emit(mov_ri(O0, 0));
  });
  tm.cpu().configure_clock_profiling(1009);
  size_t samples = 0;
  tm.cpu().on_overflow = [&](const OverflowDelivery& d) {
    EXPECT_EQ(d.pic, kClockPic);
    ++samples;
  };
  tm.run(10000000);
  const u64 expected = tm.cpu().total_cycles() / 1009;
  EXPECT_GE(samples + 2, expected);
  EXPECT_LE(samples, expected + 1);
}

TEST(Counters, SkidScaleZeroMakesEverythingPrecise) {
  CpuConfig cfg;
  cfg.skid_scale = 0.0;
  TestMachine tm(
      [](Assembler& a) {
        auto head = a.new_label();
        auto end = a.new_label();
        a.emit(sethi(O2, mem::kHeapBase >> 14));
        a.emit(mov_ri(O1, 1000));
        a.bind(head);
        a.emit(cmp_ri(O1, 0));
        a.emit_branch(Cond::E, end);
        a.emit(nop());
        a.emit(load_ri(Op::LDX, O3, O2, 0));
        a.emit(alu_ri(Op::ADD, O2, O2, 64));
        a.emit(alu_ri(Op::SUB, O1, O1, 1));
        a.emit_branch(Cond::A, head);
        a.emit(nop());
        a.bind(end);
        a.emit(mov_ri(O0, 0));
      },
      cfg);
  tm.cpu().configure_pic(0, HwEvent::DC_rd_miss, 7);
  tm.run(1000000);
  for (const auto& t : tm.cpu().truth_log()) EXPECT_EQ(t.skid, 0u);
}

TEST(HwEventTable, NamesRoundTrip) {
  for (size_t i = 0; i < kNumHwEvents; ++i) {
    const HwEvent ev = static_cast<HwEvent>(i);
    EXPECT_EQ(hw_event_by_name(hw_event_info(ev).name), ev);
  }
  EXPECT_THROW(hw_event_by_name("bogus"), Error);
}

TEST(HwEventTable, SkidOrderingMatchesPaper) {
  // DTLB precise; E$ refs skid the most (paper §3.2.5 effectiveness order).
  EXPECT_EQ(hw_event_info(HwEvent::DTLB_miss).skid_max, 0u);
  EXPECT_GT(hw_event_info(HwEvent::EC_ref).skid_max,
            hw_event_info(HwEvent::EC_rd_miss).skid_max);
}

// --- counter residuals ------------------------------------------------------
// A multiplexing collector reads pic_value() before disable_pic() and re-arms
// the register with it later. The residual must survive the disable however
// long the register stays off, and counting must resume from it exactly.

/// A loop whose loads stride past every cache line, so instructions cost
/// varying cycle counts.
void strided_load_loop(Assembler& a) {
  auto head = a.new_label();
  auto end = a.new_label();
  a.emit(sethi(O2, mem::kHeapBase >> 14));
  a.emit(mov_ri(O1, 5000));
  a.bind(head);
  a.emit(cmp_ri(O1, 0));
  a.emit_branch(Cond::E, end);
  a.emit(nop());
  a.emit(load_ri(Op::LDX, O3, O2, 0));
  a.emit(alu_ri(Op::ADD, O2, O2, 520));
  a.emit(alu_ri(Op::SUB, O1, O1, 1));
  a.emit_branch(Cond::A, head);
  a.emit(nop());
  a.bind(end);
  a.emit(mov_ri(O0, 0));
}

void check_residual_round_trip(HwEvent ev) {
  SCOPED_TRACE(hw_event_info(ev).name);
  constexpr u64 kInterval = 997;
  TestMachine tm(strided_load_loop);
  Cpu& cpu = tm.cpu();
  auto count = [&] {
    return ev == HwEvent::Cycle_cnt ? cpu.total_cycles() : cpu.total_instructions();
  };

  cpu.configure_pic(0, ev, kInterval);
  tm.run(1234);
  const u64 residual = cpu.pic_value(0);
  EXPECT_EQ(residual, count() % kInterval);
  cpu.disable_pic(0);
  EXPECT_EQ(cpu.pic_value(0), residual);
  tm.run(777);  // the register is off: nothing counts
  EXPECT_EQ(cpu.pic_value(0), residual);

  const size_t triggers = cpu.truth_log().size();
  cpu.configure_pic(0, ev, kInterval, residual);
  EXPECT_EQ(cpu.pic_value(0), residual);
  const u64 base = count();
  // The overflow is raised by the first instruction that takes the count
  // from the residual to the interval — not one instruction earlier or later.
  for (;;) {
    tm.run(1);
    const u64 counted = residual + (count() - base);
    if (counted >= kInterval) {
      EXPECT_EQ(cpu.truth_log().size(), triggers + 1);
      EXPECT_EQ(cpu.pic_value(0), counted % kInterval);
      break;
    }
    ASSERT_EQ(cpu.truth_log().size(), triggers);
    ASSERT_EQ(cpu.pic_value(0), counted);
  }
}

TEST(Counters, CycleResidualSurvivesDisableAndResumes) {
  check_residual_round_trip(HwEvent::Cycle_cnt);
}

TEST(Counters, InstructionResidualSurvivesDisableAndResumes) {
  check_residual_round_trip(HwEvent::Instr_cnt);
}

// --- control leaving the text segment --------------------------------------

/// The Error message of running `cpu` ("" if it does not throw).
std::string run_error(Cpu& cpu) {
  try {
    cpu.run(1000);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Exec, JmplToDataAddressFaults) {
  TestMachine tm([](Assembler& a) {
    a.emit(sethi(O1, mem::kDataBase >> 14));
    a.emit(jmpl(G0, O1, 0));
    a.emit(nop());
  });
  EXPECT_NE(run_error(tm.cpu()).find("PC outside text segment"), std::string::npos);
  EXPECT_EQ(tm.cpu().pc(), mem::kDataBase);
}

TEST(Exec, FallingOffTheLastTextWordFaults) {
  mem::Memory m;
  const std::vector<u32> words = {isa::encode(mov_ri(O0, 1)), isa::encode(nop())};
  m.add_segment({"text", mem::SegKind::Text, mem::kTextBase, words.size() * 4, false, true});
  m.add_segment({"data", mem::SegKind::Data, mem::kTextBase + words.size() * 4, 0x1000, true,
                 false});
  m.write_bytes(mem::kTextBase, words.data(), words.size() * 4);
  Cpu cpu(m, CpuConfig{});
  cpu.set_pc(mem::kTextBase);
  EXPECT_NE(run_error(cpu).find("PC outside text segment"), std::string::npos);
  EXPECT_EQ(cpu.total_instructions(), 2u);
  EXPECT_EQ(cpu.reg(O0), 1u);
}

// --- self-observability -----------------------------------------------------

TEST(Obs, RunRecordsInstructionsCyclesAndSpan) {
  obs::set_enabled(true);
  obs::reset_for_test();
  TestMachine tm(strided_load_loop);
  RunResult total;
  for (const u64 max : {u64{1500}, u64{0}}) {  // a capped run, then to the exit
    const RunResult r = tm.run(max);
    total.instructions += r.instructions;
    total.cycles += r.cycles;
  }
  EXPECT_TRUE(tm.cpu().halted());
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter_value("machine.instructions"), total.instructions);
  EXPECT_EQ(snap.counter_value("machine.cycles"), total.cycles);
  std::vector<std::string> names;
  size_t runs = 0;
  for (const auto& span : obs::span_records(&names)) runs += names[span.name] == "machine.run";
  EXPECT_EQ(runs, 2u);
}

}  // namespace
}  // namespace dsprof::machine
