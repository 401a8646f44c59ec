#include "common/bit_vector.h"

#include "common/popcount.h"

namespace vos {

size_t BitVector::HammingDistance(const BitVector& other) const {
  VOS_CHECK(num_bits_ == other.num_bits_)
      << "size mismatch:" << num_bits_ << "vs" << other.num_bits_;
  return XorPopcount(words_.data(), other.words_.data(), words_.size());
}

BitVector BitVector::FromWords(size_t num_bits,
                               std::vector<uint64_t> words) {
  VOS_CHECK(words.size() == (num_bits + 63) / 64)
      << "word count" << words.size() << "does not match" << num_bits
      << "bits";
  if (num_bits % 64 != 0 && !words.empty()) {
    const uint64_t tail_mask = (uint64_t{1} << (num_bits % 64)) - 1;
    VOS_CHECK((words.back() & ~tail_mask) == 0)
        << "non-zero bits beyond num_bits in serialized payload";
  }
  BitVector out;
  out.num_bits_ = num_bits;
  out.words_ = std::move(words);
  out.ones_ = PopcountWords(out.words_.data(), out.words_.size());
  return out;
}

}  // namespace vos
