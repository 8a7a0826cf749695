#include "sym/image.hpp"

namespace dsprof::sym {

void Image::load_into(mem::Memory& m) const {
  DSP_CHECK(!text_words.empty(), "image has no text");
  DSP_CHECK(entry >= text_base && entry < text_base + text_size(), "entry outside text");
  m.add_segment({"text", mem::SegKind::Text, text_base, text_size(),
                 /*writable=*/false, /*executable=*/true});
  const u64 dsize = std::max<u64>(data_size, data_init.size());
  if (dsize > 0) {
    m.add_segment({"data", mem::SegKind::Data, data_base, round_up(dsize, 8),
                   /*writable=*/true, /*executable=*/false});
  }
  m.add_segment({"heap", mem::SegKind::Heap, heap_base, heap_size,
                 /*writable=*/true, /*executable=*/false});
  m.add_segment({"stack", mem::SegKind::Stack, mem::kStackTop - mem::kStackSize,
                 mem::kStackSize + 0x4000, /*writable=*/true, /*executable=*/false});
  m.write_bytes(text_base, text_words.data(), text_words.size() * 4);
  if (!data_init.empty()) m.write_bytes(data_base, data_init.data(), data_init.size());
}

void Image::serialize(ByteWriter& w) const {
  w.put_u64(text_base);
  w.put_u32(static_cast<u32>(text_words.size()));
  for (u32 word : text_words) w.put_u32(word);
  w.put_u64(data_base);
  w.put_blob(data_init.data(), data_init.size());
  w.put_u64(data_size);
  w.put_u64(heap_base);
  w.put_u64(heap_size);
  w.put_u64(entry);
  symtab.serialize(w);
}

Image Image::deserialize(ByteReader& r) {
  Image img;
  img.text_base = r.get_u64();
  const u32 n = r.get_u32();
  // Bound the count by the bytes present before it drives allocation.
  DSP_CHECK(n <= r.remaining() / 4, "text word count exceeds the image bytes");
  img.text_words.reserve(n);
  for (u32 i = 0; i < n; ++i) img.text_words.push_back(r.get_u32());
  img.data_base = r.get_u64();
  img.data_init = r.get_blob();
  img.data_size = r.get_u64();
  img.heap_base = r.get_u64();
  img.heap_size = r.get_u64();
  img.entry = r.get_u64();
  img.symtab = SymbolTable::deserialize(r);
  return img;
}

}  // namespace dsprof::sym
