/**
 * @file
 * A byte buffer for one call's scratch copy of PM bytes: up to
 * kInline bytes live on the stack, only larger requests go to the
 * heap. The functional layer copies values out of PM on every logged
 * store (the undo log's old bytes) and every KV read; sized for those
 * values, the copies allocate nothing.
 */

#ifndef PMEMSPEC_RUNTIME_SCRATCH_BYTES_HH
#define PMEMSPEC_RUNTIME_SCRATCH_BYTES_HH

#include <cstddef>
#include <cstdint>
#include <memory>

namespace pmemspec::runtime
{

/** `n` uninitialised bytes, on the stack when n <= kInline. */
class ScratchBytes
{
  public:
    /** Covers a word, a block and a default-sized KV value. */
    static constexpr std::size_t kInline = 1024;

    explicit ScratchBytes(std::size_t n)
        : heap(n > kInline ? new std::uint8_t[n] : nullptr), n(n)
    {
    }
    ScratchBytes(const ScratchBytes &) = delete;
    ScratchBytes &operator=(const ScratchBytes &) = delete;

    std::uint8_t *data() { return heap ? heap.get() : inl; }
    std::size_t size() const { return n; }

  private:
    std::unique_ptr<std::uint8_t[]> heap;
    std::size_t n;
    std::uint8_t inl[kInline];
};

} // namespace pmemspec::runtime

#endif // PMEMSPEC_RUNTIME_SCRATCH_BYTES_HH
