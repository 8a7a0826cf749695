#include "sym/types.hpp"

namespace dsprof::sym {

TypeId TypeTable::add(Type t) {
  types_.push_back(std::move(t));
  return static_cast<TypeId>(types_.size() - 1);
}

TypeId TypeTable::add_base(std::string name, u64 size) {
  Type t;
  t.kind = TypeKind::Base;
  t.name = std::move(name);
  t.size = size;
  return add(std::move(t));
}

TypeId TypeTable::add_alias(std::string name, TypeId underlying) {
  const Type& u = get(underlying);
  Type t;
  t.kind = TypeKind::Alias;
  t.name = std::move(name);
  t.size = u.size;
  t.underlying = underlying;
  return add(std::move(t));
}

TypeId TypeTable::add_pointer(TypeId pointee) {
  get(pointee);  // bounds check
  Type t;
  t.kind = TypeKind::Pointer;
  t.size = 8;
  t.underlying = pointee;
  return add(std::move(t));
}

TypeId TypeTable::add_struct(std::string name, u64 size, std::vector<Member> members) {
  for (const auto& m : members) {
    get(m.type);  // bounds check
    DSP_CHECK(m.offset + m.size <= size, "member " + m.name + " exceeds struct size");
  }
  Type t;
  t.kind = TypeKind::Struct;
  t.name = std::move(name);
  t.size = size;
  t.members = std::move(members);
  return add(std::move(t));
}

TypeId TypeTable::declare_struct(std::string name) {
  Type t;
  t.kind = TypeKind::Struct;
  t.name = std::move(name);
  return add(std::move(t));
}

void TypeTable::define_struct(TypeId id, u64 size, std::vector<Member> members) {
  DSP_CHECK(id < types_.size() && types_[id].kind == TypeKind::Struct,
            "define_struct on non-struct");
  for (const auto& m : members) {
    get(m.type);
    DSP_CHECK(m.offset + m.size <= size, "member " + m.name + " exceeds struct size");
  }
  types_[id].size = size;
  types_[id].members = std::move(members);
}

const Type& TypeTable::get(TypeId id) const {
  DSP_CHECK(id < types_.size(), "bad TypeId");
  return types_[id];
}

TypeId TypeTable::find_struct(const std::string& name) const {
  for (size_t i = 0; i < types_.size(); ++i) {
    if (types_[i].kind == TypeKind::Struct && types_[i].name == name) {
      return static_cast<TypeId>(i);
    }
  }
  return kInvalidType;
}

std::string TypeTable::type_string(TypeId id) const {
  const Type& t = get(id);
  switch (t.kind) {
    case TypeKind::Base:
      return t.name;
    case TypeKind::Alias:
      return t.name + "=" + type_string(t.underlying);
    case TypeKind::Pointer: {
      const Type& p = get(t.underlying);
      if (p.kind == TypeKind::Struct) return "pointer+structure:" + p.name;
      return "pointer+" + type_string(t.underlying);
    }
    case TypeKind::Struct:
      return "structure:" + t.name;
  }
  return "?";
}

std::string TypeTable::aggregate_string(TypeId id) const {
  const Type& t = get(id);
  if (t.kind == TypeKind::Struct) return "{structure:" + t.name + " -}";
  return "{" + type_string(id) + "}";
}

void TypeTable::serialize(ByteWriter& w) const {
  w.put_u32(static_cast<u32>(types_.size()));
  for (const auto& t : types_) {
    w.put_u8(static_cast<u8>(t.kind));
    w.put_string(t.name);
    w.put_u64(t.size);
    w.put_u32(t.underlying);
    w.put_u32(static_cast<u32>(t.members.size()));
    for (const auto& m : t.members) {
      w.put_string(m.name);
      w.put_u32(m.type);
      w.put_u64(m.offset);
      w.put_u64(m.size);
    }
  }
}

TypeTable TypeTable::deserialize(ByteReader& r) {
  TypeTable tt;
  const u32 n = r.get_u32();
  for (u32 i = 0; i < n; ++i) {
    Type t;
    t.kind = static_cast<TypeKind>(r.get_u8());
    t.name = r.get_string();
    t.size = r.get_u64();
    t.underlying = r.get_u32();
    // add_alias/add_pointer only refer to existing types, so the chain
    // type_string() follows always ends; a hostile table must not loop.
    DSP_CHECK((t.kind != TypeKind::Alias && t.kind != TypeKind::Pointer) ||
                  t.underlying < tt.types_.size(),
              "type " + std::to_string(i) + " refers forward to type " +
                  std::to_string(t.underlying));
    const u32 nm = r.get_u32();
    for (u32 j = 0; j < nm; ++j) {
      Member m;
      m.name = r.get_string();
      m.type = r.get_u32();
      m.offset = r.get_u64();
      m.size = r.get_u64();
      t.members.push_back(std::move(m));
    }
    tt.types_.push_back(std::move(t));
  }
  return tt;
}

}  // namespace dsprof::sym
