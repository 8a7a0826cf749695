#include "mcfsim/mcfsim.hpp"

#include "scc/builder.hpp"

namespace dsprof::mcfsim {

using scc::cast;
using scc::Function;
using scc::FunctionBuilder;
using scc::land;
using scc::Module;
using scc::StructDef;
using scc::Type;
using scc::Val;

namespace {

// Arc states (ident). SUSPENDED arcs live beyond net->m and are only touched
// by price_out_impl (column generation), as in the original mcf.
constexpr i64 kUp = 1;
constexpr i64 kDown = 0;
constexpr i64 kBasic = 0;
constexpr i64 kAtLower = 1;
constexpr i64 kAtUpper = 2;
constexpr i64 kSuspended = 3;

/// Input area layout (written by the host, read by the DSL program —
/// standing in for mcf.in). All values are 64-bit words at kHeapBase.
enum InputWord : i64 {
  kInN = 0,
  kInNCands = 1,
  kInSources = 2,
  kInUnits = 3,
  kInInitialActive = 4,
  kInRefreshGap = 5,
  kInBasketSize = 6,
  kInEmitOutput = 7,
  kInArtCost = 8,
  kInSuspendThreshold = 9,  // negative = suspend_impl disabled
  kInHeaderWords = 16,  // candidate records follow: tail, head, cost, cap
  kInWordsPerCand = 4,
};

}  // namespace

void write_input(mem::Memory& m, const RunParams& params) {
  mcf::Network net = mcf::generate_instance(params.instance);
  const u64 base = mem::kHeapBase;
  auto put = [&](i64 word, i64 value) {
    m.store(base + 8 * static_cast<u64>(word), 8, static_cast<u64>(value));
  };
  const i64 ncands = static_cast<i64>(net.cands.size());
  mcf::cost_t max_c = 1;
  for (const auto& c : net.cands) max_c = std::max(max_c, c.cost < 0 ? -c.cost : c.cost);

  // Initial active prefix: at least the feasibility chain (the generator
  // emits the chain arcs first).
  i64 init = static_cast<i64>(static_cast<double>(ncands) * params.instance.initial_active);
  init = std::max(init, params.instance.nodes - 1);
  init = std::min(init, ncands);

  put(kInN, params.instance.nodes);
  put(kInNCands, ncands);
  put(kInSources, params.instance.sources);
  put(kInUnits, params.instance.units);
  put(kInInitialActive, init);
  put(kInRefreshGap, params.refresh_gap);
  put(kInBasketSize, params.basket_size);
  put(kInEmitOutput, params.emit_output ? 1 : 0);
  put(kInArtCost, (max_c + 1) * (params.instance.nodes + 1));
  put(kInSuspendThreshold, params.suspend_threshold);
  for (i64 i = 0; i < ncands; ++i) {
    const mcf::CandArc& c = net.cands[static_cast<size_t>(i)];
    const i64 w = kInHeaderWords + i * kInWordsPerCand;
    put(w + 0, c.tail);
    put(w + 1, c.head);
    put(w + 2, c.cost);
    put(w + 3, c.cap);
  }
}

sym::Image build_mcf_image(const BuildOptions& opt) {
  Module m;

  // --- types ----------------------------------------------------------------
  StructDef* node_s = m.add_struct("node");
  StructDef* arc_s = m.add_struct("arc");
  const Type cost_t = Type::i64("cost_t");
  const Type flow_t = Type::i64("flow_t");
  node_s->field("number", Type::i64())
      .field("ident", Type::ptr_u8())
      .field("pred", Type::ptr(node_s))
      .field("child", Type::ptr(node_s))
      .field("sibling", Type::ptr(node_s))
      .field("sibling_prev", Type::ptr(node_s))
      .field("depth", Type::i64())
      .field("orientation", Type::i64())
      .field("basic_arc", Type::ptr(arc_s))
      .field("firstout", Type::ptr(arc_s))
      .field("firstin", Type::ptr(arc_s))
      .field("potential", cost_t)
      .field("flow", flow_t)
      .field("mark", Type::i64())
      .field("time", Type::i64());
  DSP_CHECK(node_s->size() == 120, "node must be 120 bytes");
  DSP_CHECK(node_s->offset_of("orientation") == 56 && node_s->offset_of("child") == 24 &&
                node_s->offset_of("potential") == 88,
            "node layout must match the paper's Figure 7");
  if (opt.optimized_node_layout) {
    // §3.3: pack the hot members (orientation, child, potential, pred,
    // basic_arc — the top of Figure 7) into the leading bytes and pad to a
    // power of two so whole objects map into cache lines.
    node_s->set_layout_order({"orientation", "child", "potential", "pred", "basic_arc",
                              "number", "ident", "sibling", "sibling_prev", "depth",
                              "firstout", "firstin", "flow", "mark", "time"});
    node_s->set_pad_to(128);
  }

  arc_s->field("tail", Type::ptr(node_s))
      .field("head", Type::ptr(node_s))
      .field("ident", Type::i64())
      .field("flow", flow_t)
      .field("cost", cost_t)
      .field("cap", flow_t)
      .field("nextout", Type::ptr(arc_s))
      .field("org_cost", cost_t);
  DSP_CHECK(arc_s->size() == 64,
            "arc must stay 64 bytes");
  if (opt.optimized_node_layout) {
    // §3.3 also reorders the arc members: the pricing scans touch cost,
    // ident, tail and head — pack them into one 32-byte D$ line.
    arc_s->set_layout_order(
        {"cost", "ident", "tail", "head", "flow", "cap", "nextout", "org_cost"});
  } else {
    DSP_CHECK(arc_s->offset_of("cost") == 32,
              "arc layout must place cost at +32 (paper Figures 4/5)");
  }

  StructDef* net_s = m.add_struct("network");
  net_s->field("n", Type::i64())
      .field("m", Type::i64())
      .field("total_arcs", Type::i64())
      .field("nodes", Type::ptr(node_s))
      .field("arcs", Type::ptr(arc_s))
      .field("dummy_arcs", Type::ptr(arc_s))
      .field("art_cost", cost_t)
      .field("price_pos", Type::i64())
      .field("refresh_gap", Type::i64())
      .field("basket_size", Type::i64())
      .field("emit_output", Type::i64())
      .field("iterations", Type::i64())
      .field("suspend_threshold", cost_t);

  StructDef* basket_s = m.add_struct("basket");
  basket_s->field("a", Type::ptr(arc_s)).field("cost", cost_t).field("abs_cost", cost_t);

  // er_opt's layout hook: every struct is declared (baseline checks above
  // have run against declaration order), no code exists yet — layout changes
  // made here flow into every size/offset the builders bake in below.
  if (opt.layout_hook) opt.layout_hook(m);

  const Type pnode = Type::ptr(node_s);
  const Type parc = Type::ptr(arc_s);
  const Type pnet = Type::ptr(net_s);
  const Type pbasket = Type::ptr(basket_s);

  // --- globals ----------------------------------------------------------------
  Function* malloc_fn = scc::add_runtime(m);
  m.add_global("g_basket", pbasket, 0);
  m.add_global("g_basket_cnt", Type::i64(), 0);
  m.add_global("g_delta", flow_t, 0);
  m.add_global("g_block", pnode, 0);
  m.add_global("g_on_tail", Type::i64(), 0);

  // --- tree surgery helpers ---------------------------------------------------
  Function* detach_fn = m.add_function("detach_node", Type::i64());
  {
    FunctionBuilder fb(m, *detach_fn);
    auto x = fb.param("x", pnode);
    fb.if_else(
        x["sibling_prev"] != 0,
        [&] { fb.set(x["sibling_prev"]["sibling"], x["sibling"]); },
        [&] { fb.set(x["pred"]["child"], x["sibling"]); });
    fb.if_(x["sibling"] != 0, [&] { fb.set(x["sibling"]["sibling_prev"], x["sibling_prev"]); });
    fb.set(x["sibling"], 0);
    fb.set(x["sibling_prev"], 0);
    fb.ret0();
  }

  Function* attach_fn = m.add_function("attach_node", Type::i64());
  {
    FunctionBuilder fb(m, *attach_fn);
    auto x = fb.param("x", pnode);
    auto p = fb.param("p", pnode);
    fb.set(x["sibling"], p["child"]);
    fb.if_(p["child"] != 0, [&] { fb.set(p["child"]["sibling_prev"], x); });
    fb.set(p["child"], x);
    fb.set(x["sibling_prev"], 0);
    fb.set(x["pred"], p);
    fb.ret0();
  }

  Function* setfrom_fn = m.add_function("set_from_parent", Type::i64());
  {
    FunctionBuilder fb(m, *setfrom_fn);
    auto v = fb.param("v", pnode);
    fb.set(v["depth"], v["pred"]["depth"] + 1);
    fb.if_else(
        v["orientation"] == kUp,
        [&] { fb.set(v["potential"], v["basic_arc"]["cost"] + v["pred"]["potential"]); },
        [&] { fb.set(v["potential"], v["pred"]["potential"] - v["basic_arc"]["cost"]); });
    fb.ret0();
  }

  // --- refresh_potential: the paper's Figure 3 critical loop ------------------
  Function* refresh_fn = m.add_function("refresh_potential", Type::i64());
  {
    FunctionBuilder fb(m, *refresh_fn);
    auto net = fb.param("net", pnet);
    auto node = fb.local("node", pnode);
    auto root = fb.local("root", pnode);
    auto tmp = fb.local("tmp", pnode);
    auto checksum = fb.local("checksum", Type::i64());
    fb.set(root, net["nodes"]);
    fb.set(checksum, 0);
    fb.set(node, root["child"]);
    fb.set(tmp, node);
    fb.while_(land(node != root, node != 0), [&] {
      fb.while_(node != 0, [&] {
        fb.if_else(
            node["orientation"] == kUp,
            [&] {
              fb.set(node["potential"], node["basic_arc"]["cost"] + node["pred"]["potential"]);
            },
            [&] { /* == DOWN */
              fb.set(node["potential"], node["pred"]["potential"] - node["basic_arc"]["cost"]);
              fb.set(checksum, checksum + 1);
            });
        fb.set(tmp, node);
        fb.set(node, node["child"]);
      });
      fb.set(node, tmp);
      fb.while_(node["pred"] != 0, [&] {
        fb.set(tmp, node["sibling"]);
        fb.if_else(tmp != 0, [&] { fb.set(node, tmp); fb.break_(); },
                   [&] { fb.set(node, node["pred"]); });
      });
    });
    fb.ret(checksum);
  }

  // --- sort_basket: recursive quicksort, descending |reduced cost| ------------
  Function* sort_fn = m.add_function("sort_basket", Type::i64());
  {
    FunctionBuilder fb(m, *sort_fn);
    auto l = fb.param("l", Type::i64());
    auto r = fb.param("r", Type::i64());
    auto i = fb.local("i", Type::i64());
    auto j = fb.local("j", Type::i64());
    auto pivot = fb.local("pivot", cost_t);
    auto bi = fb.local("bi", pbasket);
    auto bj = fb.local("bj", pbasket);
    auto ta = fb.local("ta", parc);
    auto tc = fb.local("tc", cost_t);
    fb.if_(l >= r, [&] { fb.ret0(); });
    auto basket = fb.global("g_basket");
    fb.set(i, l);
    fb.set(j, r);
    fb.set(pivot, (basket + ((l + r) / 2))["abs_cost"]);
    fb.while_(i <= j, [&] {
      fb.while_((basket + i)["abs_cost"] > pivot, [&] { fb.set(i, i + 1); });
      fb.while_((basket + j)["abs_cost"] < pivot, [&] { fb.set(j, j - 1); });
      fb.if_(i <= j, [&] {
        fb.set(bi, basket + i);
        fb.set(bj, basket + j);
        fb.set(ta, bi["a"]);
        fb.set(bi["a"], bj["a"]);
        fb.set(bj["a"], ta);
        fb.set(tc, bi["cost"]);
        fb.set(bi["cost"], bj["cost"]);
        fb.set(bj["cost"], tc);
        fb.set(tc, bi["abs_cost"]);
        fb.set(bi["abs_cost"], bj["abs_cost"]);
        fb.set(bj["abs_cost"], tc);
        fb.set(i, i + 1);
        fb.set(j, j - 1);
      });
    });
    fb.if_(l < j, [&] { fb.call_stmt(sort_fn, {l, j}); });
    fb.if_(i < r, [&] { fb.call_stmt(sort_fn, {i, r}); });
    fb.ret0();
  }

  // --- primal_bea_mpp: multiple partial pricing --------------------------------
  Function* bea_fn = m.add_function("primal_bea_mpp", parc);
  {
    FunctionBuilder fb(m, *bea_fn);
    auto net = fb.param("net", pnet);
    auto arc = fb.local("arc", parc);
    auto pos = fb.local("pos", Type::i64());
    auto scanned = fb.local("scanned", Type::i64());
    auto red = fb.local("red_cost", cost_t);
    auto cnt = fb.local("cnt", Type::i64());
    auto slot = fb.local("slot", pbasket);
    auto i = fb.local("i", Type::i64());
    // Loop invariants hoisted into registers, as an optimizing compiler would.
    auto arcs = fb.local("arcs", parc);
    auto mm = fb.local("mm", Type::i64());
    auto bsize = fb.local("bsize", Type::i64());
    auto basket0 = fb.local("basket0", pbasket);
    fb.set(arcs, net["arcs"]);
    fb.set(mm, net["m"]);
    fb.set(bsize, net["basket_size"]);
    fb.set(basket0, fb.global("g_basket"));
    // Re-price the persistent basket, keeping still-eligible entries.
    fb.set(cnt, 0);
    fb.set(i, 0);
    fb.while_(i < fb.global("g_basket_cnt"), [&] {
      fb.set(arc, (basket0 + i)["a"]);
      fb.set(red, arc["cost"] - arc["tail"]["potential"] + arc["head"]["potential"]);
      fb.if_(arc["ident"] == kAtLower, [&] {
        fb.if_(red < 0, [&] {
          fb.set(slot, basket0 + cnt);
          fb.set(slot["a"], arc);
          fb.set(slot["cost"], red);
          fb.set(slot["abs_cost"], 0 - red);
          fb.set(cnt, cnt + 1);
        });
      });
      fb.if_(arc["ident"] == kAtUpper, [&] {
        fb.if_(red > 0, [&] {
          fb.set(slot, basket0 + cnt);
          fb.set(slot["a"], arc);
          fb.set(slot["cost"], red);
          fb.set(slot["abs_cost"], red);
          fb.set(cnt, cnt + 1);
        });
      });
      fb.set(i, i + 1);
    });
    fb.set(scanned, 0);
    fb.set(pos, net["price_pos"]);
    // The active set may have shrunk since the last call (suspend_impl).
    fb.if_(pos >= mm, [&] { fb.set(pos, 0); });
    // Refill at most one group per call; keep sweeping only while the basket
    // is empty (a full fruitless sweep proves optimality).
    fb.while_(land(scanned < mm, cnt < bsize), [&] {
      fb.if_(land(scanned >= 300, cnt > 0), [&] { fb.break_(); });
      fb.set(arc, arcs + pos);
      if (opt.prefetch_arc_scan) {
        // One E$ line (8 arcs) ahead of the streaming scan.
        fb.prefetch((arcs + (pos + 8))["cost"]);
      }
      fb.set(pos, pos + 1);
      fb.if_(pos == mm, [&] { fb.set(pos, 0); });
      fb.set(red, arc["cost"] - arc["tail"]["potential"] + arc["head"]["potential"]);
      fb.if_(arc["ident"] == kAtLower, [&] {
        fb.if_(red < 0, [&] {
          fb.set(slot, basket0 + cnt);
          fb.set(slot["a"], arc);
          fb.set(slot["cost"], red);
          fb.set(slot["abs_cost"], 0 - red);
          fb.set(cnt, cnt + 1);
        });
      });
      fb.if_(arc["ident"] == kAtUpper, [&] {
        fb.if_(red > 0, [&] {
          fb.set(slot, basket0 + cnt);
          fb.set(slot["a"], arc);
          fb.set(slot["cost"], red);
          fb.set(slot["abs_cost"], red);
          fb.set(cnt, cnt + 1);
        });
      });
      fb.set(scanned, scanned + 1);
    });
    fb.set(net["price_pos"], pos);
    fb.if_(cnt == 0, [&] {
      // Price the artificial arcs as a last resort.
      fb.set(i, 0);
      fb.while_(land(i < net["n"], cnt < bsize), [&] {
        fb.set(arc, net["dummy_arcs"] + i);
        fb.if_(arc["ident"] != kBasic, [&] {
          fb.set(red, arc["cost"] - arc["tail"]["potential"] + arc["head"]["potential"]);
          fb.if_(land(arc["ident"] == kAtLower, red < 0), [&] {
            fb.set(slot, fb.global("g_basket") + cnt);
            fb.set(slot["a"], arc);
            fb.set(slot["cost"], red);
            fb.set(slot["abs_cost"], 0 - red);
            fb.set(cnt, cnt + 1);
          });
          fb.if_(land(arc["ident"] == kAtUpper, red > 0), [&] {
            fb.set(slot, fb.global("g_basket") + cnt);
            fb.set(slot["a"], arc);
            fb.set(slot["cost"], red);
            fb.set(slot["abs_cost"], red);
            fb.set(cnt, cnt + 1);
          });
        });
        fb.set(i, i + 1);
      });
    });
    fb.set(fb.global("g_basket_cnt"), cnt);
    fb.if_(cnt == 0, [&] { fb.ret(cast(0, parc)); });
    fb.call_stmt(sort_fn, {Val(0), cnt - 1});
    fb.ret(fb.global("g_basket")["a"]);
  }

  // --- find_join ----------------------------------------------------------------
  Function* join_fn = m.add_function("find_join", pnode);
  {
    FunctionBuilder fb(m, *join_fn);
    auto t = fb.param("t", pnode);
    auto h = fb.param("h", pnode);
    fb.while_(t["depth"] > h["depth"], [&] { fb.set(t, t["pred"]); });
    fb.while_(h["depth"] > t["depth"], [&] { fb.set(h, h["pred"]); });
    fb.while_(t != h, [&] {
      fb.set(t, t["pred"]);
      fb.set(h, h["pred"]);
    });
    fb.ret(t);
  }

  // --- primal_iminus: the ratio test ---------------------------------------------
  Function* iminus_fn = m.add_function("primal_iminus", Type::i64());
  {
    FunctionBuilder fb(m, *iminus_fn);
    auto e = fb.param("e", parc);
    auto join = fb.param("join", pnode);
    auto tail = fb.param("tail", pnode);
    auto head = fb.param("head", pnode);
    auto fwd = fb.param("fwd", Type::i64());
    auto x = fb.local("x", pnode);
    auto a = fb.local("a", parc);
    auto room = fb.local("room", flow_t);
    auto delta = fb.local("delta", flow_t);
    fb.if_else(fwd == 1, [&] { fb.set(delta, e["cap"] - e["flow"]); },
               [&] { fb.set(delta, e["flow"]); });
    fb.set(fb.global("g_block"), 0);
    fb.set(fb.global("g_on_tail"), 0);
    fb.set(x, tail);
    fb.while_(x != join, [&] {
      fb.set(a, x["basic_arc"]);
      fb.if_else((x["orientation"] == kDown) == fwd,
                 [&] { fb.set(room, a["cap"] - a["flow"]); }, [&] { fb.set(room, a["flow"]); });
      fb.if_(room < delta, [&] {
        fb.set(delta, room);
        fb.set(fb.global("g_block"), x);
        fb.set(fb.global("g_on_tail"), 1);
      });
      fb.set(x, x["pred"]);
    });
    fb.set(x, head);
    fb.while_(x != join, [&] {
      fb.set(a, x["basic_arc"]);
      fb.if_else((x["orientation"] == kUp) == fwd,
                 [&] { fb.set(room, a["cap"] - a["flow"]); }, [&] { fb.set(room, a["flow"]); });
      fb.if_(room < delta, [&] {
        fb.set(delta, room);
        fb.set(fb.global("g_block"), x);
        fb.set(fb.global("g_on_tail"), 0);
      });
      fb.set(x, x["pred"]);
    });
    fb.set(fb.global("g_delta"), delta);
    fb.ret0();
  }

  // --- flow update along the cycle -------------------------------------------------
  Function* applyflow_fn = m.add_function("apply_flows", Type::i64());
  {
    FunctionBuilder fb(m, *applyflow_fn);
    auto e = fb.param("e", parc);
    auto join = fb.param("join", pnode);
    auto tail = fb.param("tail", pnode);
    auto head = fb.param("head", pnode);
    auto fwd = fb.param("fwd", Type::i64());
    auto delta = fb.param("delta", flow_t);
    auto x = fb.local("x", pnode);
    auto a = fb.local("a", parc);
    fb.if_else(fwd == 1, [&] { fb.set(e["flow"], e["flow"] + delta); },
               [&] { fb.set(e["flow"], e["flow"] - delta); });
    fb.set(x, tail);
    fb.while_(x != join, [&] {
      fb.set(a, x["basic_arc"]);
      fb.if_else((x["orientation"] == kDown) == fwd,
                 [&] { fb.set(a["flow"], a["flow"] + delta); },
                 [&] { fb.set(a["flow"], a["flow"] - delta); });
      fb.set(x["flow"], a["flow"]);
      fb.set(x, x["pred"]);
    });
    fb.set(x, head);
    fb.while_(x != join, [&] {
      fb.set(a, x["basic_arc"]);
      fb.if_else((x["orientation"] == kUp) == fwd,
                 [&] { fb.set(a["flow"], a["flow"] + delta); },
                 [&] { fb.set(a["flow"], a["flow"] - delta); });
      fb.set(x["flow"], a["flow"]);
      fb.set(x, x["pred"]);
    });
    fb.ret0();
  }

  // --- update_tree: re-root the cut subtree ------------------------------------------
  Function* update_fn = m.add_function("update_tree", Type::i64());
  {
    FunctionBuilder fb(m, *update_fn);
    auto e = fb.param("e", parc);
    auto q = fb.param("q", pnode);
    auto block = fb.param("block", pnode);
    auto prev = fb.local("prev", pnode);
    auto cur = fb.local("cur", pnode);
    auto nxt = fb.local("nxt", pnode);
    auto carried = fb.local("carried", parc);
    auto old_arc = fb.local("old_arc", parc);
    auto v = fb.local("v", pnode);
    fb.if_else(e["tail"] == q, [&] { fb.set(prev, e["head"]); },
               [&] { fb.set(prev, e["tail"]); });
    fb.set(carried, e);
    fb.set(cur, q);
    fb.while_(Val(1) == 1, [&] {
      fb.set(nxt, cur["pred"]);
      fb.set(old_arc, cur["basic_arc"]);
      fb.call_stmt(detach_fn, {cur});
      fb.set(cur["basic_arc"], carried);
      fb.if_else(carried["tail"] == cur, [&] { fb.set(cur["orientation"], kUp); },
                 [&] { fb.set(cur["orientation"], kDown); });
      fb.set(cur["flow"], carried["flow"]);
      fb.call_stmt(attach_fn, {cur, prev});
      fb.set(carried, old_arc);
      fb.set(prev, cur);
      fb.if_(cur == block, [&] { fb.break_(); });
      fb.set(cur, nxt);
    });
    // Preorder refresh of depth & potential across the moved subtree.
    fb.call_stmt(setfrom_fn, {q});
    fb.set(v, q);
    fb.while_(Val(1) == 1, [&] {
      fb.if_(v["child"] != 0, [&] {
        fb.set(v, v["child"]);
        fb.call_stmt(setfrom_fn, {v});
        fb.continue_();
      });
      fb.while_(land(v != q, v["sibling"] == 0), [&] { fb.set(v, v["pred"]); });
      fb.if_(v == q, [&] { fb.break_(); });
      fb.set(v, v["sibling"]);
      fb.call_stmt(setfrom_fn, {v});
    });
    fb.ret0();
  }

  // --- one pivot ------------------------------------------------------------------------
  Function* pivot_fn = m.add_function("primal_pivot", Type::i64());
  {
    FunctionBuilder fb(m, *pivot_fn);
    auto net = fb.param("net", pnet);
    auto e = fb.param("e", parc);
    auto tail = fb.local("tail", pnode);
    auto head = fb.local("head", pnode);
    auto join = fb.local("join", pnode);
    auto fwd = fb.local("fwd", Type::i64());
    auto q = fb.local("q", pnode);
    auto leaving = fb.local("leaving", parc);
    fb.set(tail, e["tail"]);
    fb.set(head, e["head"]);
    fb.if_else(e["ident"] == kAtLower, [&] { fb.set(fwd, 1); }, [&] { fb.set(fwd, 0); });
    fb.set(join, fb.call(join_fn, {tail, head}));
    fb.call_stmt(iminus_fn, {e, join, tail, head, fwd});
    fb.call_stmt(applyflow_fn, {e, join, tail, head, fwd, fb.global("g_delta")});
    fb.set(net["iterations"], net["iterations"] + 1);
    fb.if_(fb.global("g_block") == 0, [&] {
      fb.if_else(fwd == 1, [&] { fb.set(e["ident"], kAtUpper); },
                 [&] { fb.set(e["ident"], kAtLower); });
      fb.ret0();
    });
    fb.set(leaving, fb.global("g_block")["basic_arc"]);
    fb.if_else(leaving["flow"] == leaving["cap"], [&] { fb.set(leaving["ident"], kAtUpper); },
               [&] { fb.set(leaving["ident"], kAtLower); });
    fb.set(e["ident"], kBasic);
    fb.if_else(fb.global("g_on_tail") == 1, [&] { fb.set(q, tail); }, [&] { fb.set(q, head); });
    fb.call_stmt(update_fn, {e, q, fb.global("g_block")});
    fb.ret0();
  }

  // --- the simplex driver -----------------------------------------------------------------
  Function* simplex_fn = m.add_function("primal_net_simplex", Type::i64());
  {
    FunctionBuilder fb(m, *simplex_fn);
    auto net = fb.param("net", pnet);
    auto e = fb.local("e", parc);
    auto since = fb.local("since_refresh", Type::i64());
    fb.set(since, 0);
    fb.set(e, fb.call(bea_fn, {net}));
    fb.while_(e != 0, [&] {
      fb.call_stmt(pivot_fn, {net, e});
      fb.set(since, since + 1);
      fb.if_(since >= net["refresh_gap"], [&] {
        fb.call_stmt(refresh_fn, {net});
        fb.set(since, 0);
      });
      fb.set(e, fb.call(bea_fn, {net}));
    });
    fb.call_stmt(refresh_fn, {net});
    fb.ret0();
  }

  // --- price_out_impl: column generation over the suspended arcs ---------------------------
  Function* price_fn = m.add_function("price_out_impl", Type::i64());
  {
    FunctionBuilder fb(m, *price_fn);
    auto net = fb.param("net", pnet);
    auto i = fb.local("i", Type::i64());
    auto a = fb.local("a", parc);
    auto b = fb.local("b", parc);
    auto red = fb.local("red_cost", cost_t);
    auto added = fb.local("added", Type::i64());
    auto max_new = fb.local("max_new", Type::i64());
    auto tp = fb.local("tp", pnode);
    auto tc = fb.local("tc", Type::i64());
    auto arcs = fb.local("arcs", parc);
    auto total = fb.local("total", Type::i64());
    fb.set(arcs, net["arcs"]);
    fb.set(total, net["total_arcs"]);
    fb.set(added, 0);
    fb.set(max_new, net["n"] / 8 + 16);
    fb.set(i, net["m"]);
    // Price the entire suspended (implicit) arc set, as the original does —
    // this streaming sweep is what gives price_out_impl its large E$-refs
    // share in the paper's Figure 2 — but activate at most max_new per round.
    fb.while_(i < total, [&] {
      fb.set(a, arcs + i);
      fb.set(red, a["cost"] - a["tail"]["potential"] + a["head"]["potential"]);
      fb.if_(land(red < 0, added < max_new), [&] {
        // Swap the attractive suspended arc into the active region
        // (suspended arcs are never basic, so no basis pointers move).
        fb.set(b, arcs + net["m"]);
        fb.set(tp, a["tail"]);
        fb.set(a["tail"], b["tail"]);
        fb.set(b["tail"], tp);
        fb.set(tp, a["head"]);
        fb.set(a["head"], b["head"]);
        fb.set(b["head"], tp);
        fb.set(a["ident"], b["ident"]);
        fb.set(b["ident"], kAtLower);
        fb.set(tc, a["flow"]);
        fb.set(a["flow"], b["flow"]);
        fb.set(b["flow"], tc);
        fb.set(tc, a["cost"]);
        fb.set(a["cost"], b["cost"]);
        fb.set(b["cost"], tc);
        fb.set(tc, a["cap"]);
        fb.set(a["cap"], b["cap"]);
        fb.set(b["cap"], tc);
        fb.set(tc, a["org_cost"]);
        fb.set(a["org_cost"], b["org_cost"]);
        fb.set(b["org_cost"], tc);
        fb.set(net["m"], net["m"] + 1);
        fb.set(added, added + 1);
      });
      fb.set(i, i + 1);
    });
    fb.ret(added);
  }

  // --- suspend_impl: deactivate flowless nonbasic arcs with strongly
  // positive reduced cost, swapping them past the active prefix (they stay
  // candidates for price_out_impl) -------------------------------------------
  Function* suspend_fn = m.add_function("suspend_impl", Type::i64());
  {
    FunctionBuilder fb(m, *suspend_fn);
    auto net = fb.param("net", pnet);
    auto i = fb.local("i", Type::i64());
    auto a = fb.local("a", parc);
    auto last = fb.local("last", parc);
    auto owner = fb.local("owner", pnode);
    auto red = fb.local("red_cost", cost_t);
    auto thr = fb.local("thr", cost_t);
    auto count = fb.local("count", Type::i64());
    auto tp = fb.local("tp", pnode);
    auto tc = fb.local("tc", Type::i64());
    auto arcs = fb.local("arcs", parc);
    auto again = fb.local("again", Type::i64());
    fb.set(arcs, net["arcs"]);
    fb.set(thr, net["suspend_threshold"]);
    fb.set(count, 0);
    fb.set(i, 0);
    fb.while_(i < net["m"], [&] {
      fb.set(a, arcs + i);
      fb.set(again, 0);
      fb.if_(land(a["ident"] == kAtLower, a["flow"] == 0), [&] {
        fb.set(red, a["cost"] - a["tail"]["potential"] + a["head"]["potential"]);
        fb.if_(red > thr, [&] {
          fb.set(last, arcs + (net["m"] - 1));
          // Swap a <-> last (8 fields).
          fb.set(tp, a["tail"]);
          fb.set(a["tail"], last["tail"]);
          fb.set(last["tail"], tp);
          fb.set(tp, a["head"]);
          fb.set(a["head"], last["head"]);
          fb.set(last["head"], tp);
          fb.set(tc, a["ident"]);
          fb.set(a["ident"], last["ident"]);
          fb.set(last["ident"], tc);
          fb.set(tc, a["flow"]);
          fb.set(a["flow"], last["flow"]);
          fb.set(last["flow"], tc);
          fb.set(tc, a["cost"]);
          fb.set(a["cost"], last["cost"]);
          fb.set(last["cost"], tc);
          fb.set(tc, a["cap"]);
          fb.set(a["cap"], last["cap"]);
          fb.set(last["cap"], tc);
          fb.set(tc, a["org_cost"]);
          fb.set(a["org_cost"], last["org_cost"]);
          fb.set(last["org_cost"], tc);
          fb.set(last["ident"], kSuspended);
          fb.set(net["m"], net["m"] - 1);
          fb.set(count, count + 1);
          // The arc previously at the prefix end now lives in slot i; if it
          // is basic, repoint its owning node's basic_arc.
          fb.if_(a != last, [&] {
            fb.if_(a["ident"] == kBasic, [&] {
              fb.if_else(a["tail"]["basic_arc"] == last,
                         [&] { fb.set(owner, a["tail"]); },
                         [&] { fb.set(owner, a["head"]); });
              fb.set(owner["basic_arc"], a);
            });
            fb.set(again, 1);  // re-examine slot i
          });
        });
      });
      fb.if_(again == 0, [&] { fb.set(i, i + 1); });
    });
    // The round-robin scan position may now lie beyond the active prefix.
    fb.if_(net["price_pos"] >= net["m"], [&] { fb.set(net["price_pos"], 0); });
    fb.ret(count);
  }

  // --- supply rule (matches the host generator) ---------------------------------------------
  Function* supply_fn = m.add_function("supply_of", flow_t);
  {
    FunctionBuilder fb(m, *supply_fn);
    auto net = fb.param("net", pnet);
    auto i = fb.param("i", Type::i64());
    auto sources = fb.param("sources", Type::i64());
    auto units = fb.param("units", Type::i64());
    fb.if_(i <= sources, [&] { fb.ret(units); });
    fb.if_(i > net["n"] - sources, [&] { fb.ret(0 - units); });
    fb.ret(Val(0));
  }

  // --- primal_start_artificial ------------------------------------------------------------
  Function* start_fn = m.add_function("primal_start_artificial", Type::i64());
  {
    FunctionBuilder fb(m, *start_fn);
    auto net = fb.param("net", pnet);
    auto sources = fb.param("sources", Type::i64());
    auto units = fb.param("units", Type::i64());
    auto root = fb.local("root", pnode);
    auto v = fb.local("v", pnode);
    auto a = fb.local("a", parc);
    auto i = fb.local("i", Type::i64());
    auto b = fb.local("b", flow_t);
    fb.set(root, net["nodes"]);
    fb.set(root["number"], 0);
    fb.set(root["potential"], 0 - net["art_cost"]);
    fb.set(root["depth"], 0);
    fb.set(root["pred"], 0);
    fb.set(root["child"], 0);
    fb.set(i, 1);
    fb.while_(i <= net["n"], [&] {
      fb.set(v, net["nodes"] + i);
      fb.set(a, net["dummy_arcs"] + (i - 1));
      fb.set(v["number"], i);
      fb.set(b, fb.call(supply_fn, {net, i, sources, units}));
      fb.if_else(
          b >= 0,
          [&] {
            fb.set(a["tail"], v);
            fb.set(a["head"], root);
            fb.set(v["orientation"], kUp);
            fb.set(a["flow"], b);
          },
          [&] {
            fb.set(a["tail"], root);
            fb.set(a["head"], v);
            fb.set(v["orientation"], kDown);
            fb.set(a["flow"], 0 - b);
          });
      fb.set(a["cost"], net["art_cost"]);
      fb.set(a["cap"], net["art_cost"]);
      fb.set(a["ident"], kBasic);
      fb.set(v["basic_arc"], a);
      fb.set(v["flow"], a["flow"]);
      fb.call_stmt(attach_fn, {v, root});
      fb.call_stmt(setfrom_fn, {v});
      fb.set(i, i + 1);
    });
    fb.ret0();
  }

  // --- flow_cost (calls refresh_potential, as the original does) -----------------------------
  Function* flowcost_fn = m.add_function("flow_cost", cost_t);
  {
    FunctionBuilder fb(m, *flowcost_fn);
    auto net = fb.param("net", pnet);
    auto total = fb.local("total", cost_t);
    auto i = fb.local("i", Type::i64());
    auto a = fb.local("a", parc);
    fb.call_stmt(refresh_fn, {net});
    fb.set(total, 0);
    fb.set(i, 0);
    fb.while_(i < net["m"], [&] {
      fb.set(a, net["arcs"] + i);
      fb.set(total, total + a["cost"] * a["flow"]);
      fb.set(i, i + 1);
    });
    fb.set(i, 0);
    fb.while_(i < net["n"], [&] {
      fb.set(a, net["dummy_arcs"] + i);
      fb.set(total, total + a["cost"] * a["flow"]);
      fb.set(i, i + 1);
    });
    fb.ret(total);
  }

  // --- dual_feasible --------------------------------------------------------------------------
  Function* dual_fn = m.add_function("dual_feasible", Type::i64());
  {
    FunctionBuilder fb(m, *dual_fn);
    auto net = fb.param("net", pnet);
    auto viol = fb.local("violations", Type::i64());
    auto i = fb.local("i", Type::i64());
    auto a = fb.local("a", parc);
    auto red = fb.local("red_cost", cost_t);
    fb.set(viol, 0);
    auto check_body = [&] {
      fb.set(red, a["cost"] - a["tail"]["potential"] + a["head"]["potential"]);
      fb.if_(land(a["ident"] == kBasic, red != 0), [&] { fb.set(viol, viol + 1); });
      fb.if_(land(a["ident"] == kAtLower, red < 0), [&] { fb.set(viol, viol + 1); });
      fb.if_(land(a["ident"] == kAtUpper, red > 0), [&] { fb.set(viol, viol + 1); });
    };
    fb.set(i, 0);
    fb.while_(i < net["m"], [&] {
      fb.set(a, net["arcs"] + i);
      check_body();
      fb.set(i, i + 1);
    });
    fb.set(i, 0);
    fb.while_(i < net["n"], [&] {
      fb.set(a, net["dummy_arcs"] + i);
      check_body();
      fb.set(i, i + 1);
    });
    // Suspended arcs sit at their lower bound outside the basis: optimality
    // requires nonnegative reduced cost for them too.
    fb.set(i, net["m"]);
    fb.while_(i < net["total_arcs"], [&] {
      fb.set(a, net["arcs"] + i);
      fb.set(red, a["cost"] - a["tail"]["potential"] + a["head"]["potential"]);
      fb.if_(red < 0, [&] { fb.set(viol, viol + 1); });
      fb.set(i, i + 1);
    });
    fb.ret(viol);
  }

  // --- write_circulations ------------------------------------------------------------------------
  Function* writec_fn = m.add_function("write_circulations", Type::i64());
  {
    FunctionBuilder fb(m, *writec_fn);
    auto net = fb.param("net", pnet);
    auto i = fb.local("i", Type::i64());
    auto rows = fb.local("rows", Type::i64());
    auto a = fb.local("a", parc);
    fb.set(i, 0);
    fb.set(rows, 0);
    fb.while_(land(i < net["m"], rows < 20), [&] {
      fb.set(a, net["arcs"] + i);
      fb.if_(a["flow"] > 0, [&] {
        fb.put_int(a["tail"]["number"]);
        fb.put_char(Val(32));
        fb.put_int(a["head"]["number"]);
        fb.put_char(Val(32));
        fb.put_int(a["flow"]);
        fb.put_char(Val(10));
        fb.set(rows, rows + 1);
      });
      fb.set(i, i + 1);
    });
    fb.ret0();
  }

  // --- read_min: build the network from the input area (replaces mcf.in parsing) ---------------
  Function* readmin_fn = m.add_function("read_min", pnet);
  {
    FunctionBuilder fb(m, *readmin_fn);
    auto in = fb.local("in", Type::ptr_i64());
    auto net = fb.local("net", pnet);
    auto i = fb.local("i", Type::i64());
    auto a = fb.local("a", parc);
    auto w = fb.local("w", Type::i64());
    auto sz = fb.local("sz", Type::i64());
    auto p = fb.local("p", Type::i64());
    fb.set(in, cast(Val(static_cast<i64>(mem::kHeapBase)), Type::ptr_i64()));
    // Move the heap break past the input area before the first malloc.
    fb.set(fb.global("__brk"),
           ((Val(static_cast<i64>(mem::kHeapBase)) + (kInHeaderWords * 8) +
             in.idx(kInNCands) * (kInWordsPerCand * 8)) +
            511) &
               -512);
    fb.set(net, cast(fb.call(malloc_fn, {Val(static_cast<i64>(net_s->size()))}), pnet));
    fb.set(net["n"], in.idx(kInN));
    fb.set(net["total_arcs"], in.idx(kInNCands));
    fb.set(net["m"], in.idx(kInInitialActive));
    fb.set(net["art_cost"], in.idx(kInArtCost));
    fb.set(net["price_pos"], 0);
    fb.set(net["refresh_gap"], in.idx(kInRefreshGap));
    fb.set(net["basket_size"], in.idx(kInBasketSize));
    fb.set(net["emit_output"], in.idx(kInEmitOutput));
    fb.set(net["iterations"], 0);
    fb.set(net["suspend_threshold"], in.idx(kInSuspendThreshold));

    const i64 node_size = static_cast<i64>(node_s->size());
    const i64 arc_size = static_cast<i64>(arc_s->size());
    auto alloc_array = [&](Val count, i64 elem_size) {
      fb.set(sz, count * elem_size);
      if (opt.align_heap_arrays) {
        fb.set(p, (fb.call(malloc_fn, {sz + 512}) + 511) & -512);
      } else {
        fb.set(p, fb.call(malloc_fn, {sz}));
      }
    };
    alloc_array(net["n"] + 1, node_size);
    fb.set(net["nodes"], cast(p, pnode));
    alloc_array(net["total_arcs"], arc_size);
    fb.set(net["arcs"], cast(p, parc));
    alloc_array(net["n"], arc_size);
    fb.set(net["dummy_arcs"], cast(p, parc));
    alloc_array(net["basket_size"] + 2, static_cast<i64>(basket_s->size()));
    fb.set(fb.global("g_basket"), cast(p, pbasket));

    // Materialize every candidate arc; the first `m` are active (AT_LOWER),
    // the rest suspended until price_out_impl pulls them in.
    auto arcs = fb.local("arcs", parc);
    auto nodes = fb.local("nodes", pnode);
    auto total = fb.local("total", Type::i64());
    auto act = fb.local("act", Type::i64());
    fb.set(arcs, net["arcs"]);
    fb.set(nodes, net["nodes"]);
    fb.set(total, net["total_arcs"]);
    fb.set(act, net["m"]);
    fb.set(i, 0);
    fb.while_(i < total, [&] {
      fb.set(a, arcs + i);
      fb.set(w, i * kInWordsPerCand + kInHeaderWords);
      fb.set(a["tail"], nodes + in.idx(w));
      fb.set(a["head"], nodes + in.idx(w + 1));
      fb.set(a["cost"], in.idx(w + 2));
      fb.set(a["org_cost"], in.idx(w + 2));
      fb.set(a["cap"], in.idx(w + 3));
      fb.set(a["flow"], 0);
      fb.if_else(i < act, [&] { fb.set(a["ident"], kAtLower); },
                 [&] { fb.set(a["ident"], kSuspended); });
      fb.set(i, i + 1);
    });
    fb.ret(net);
  }

  // --- main (global_opt driver) ---------------------------------------------------------------
  Function* main_fn = m.add_function("main", Type::i64());
  {
    FunctionBuilder fb(m, *main_fn);
    auto in = fb.local("in", Type::ptr_i64());
    auto net = fb.local("net", pnet);
    auto cost = fb.local("cost", cost_t);
    auto viol = fb.local("violations", Type::i64());
    auto artflow = fb.local("artflow", flow_t);
    auto i = fb.local("i", Type::i64());
    fb.set(in, cast(Val(static_cast<i64>(mem::kHeapBase)), Type::ptr_i64()));
    fb.set(net, fb.call(readmin_fn, {}));
    fb.call_stmt(start_fn, {net, in.idx(kInSources), in.idx(kInUnits)});
    fb.call_stmt(simplex_fn, {net});
    fb.while_(Val(1) == 1, [&] {
      fb.if_(net["suspend_threshold"] >= 0, [&] { fb.call_stmt(suspend_fn, {net}); });
      fb.if_(fb.call(price_fn, {net}) == 0, [&] { fb.break_(); });
      fb.call_stmt(simplex_fn, {net});
    });
    fb.set(cost, fb.call(flowcost_fn, {net}));
    fb.trace(cost);
    fb.set(viol, fb.call(dual_fn, {net}));
    fb.trace(viol);
    fb.set(artflow, 0);
    fb.set(i, 0);
    fb.while_(i < net["n"], [&] {
      fb.set(artflow, artflow + (net["dummy_arcs"] + i)["flow"]);
      fb.set(i, i + 1);
    });
    fb.trace(artflow);
    fb.trace(net["iterations"]);
    fb.if_(net["emit_output"] == 1, [&] { fb.call_stmt(writec_fn, {net}); });
    fb.ret(Val(0));
  }

  return scc::compile(m, opt.compile);
}

}  // namespace dsprof::mcfsim
