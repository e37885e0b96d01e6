/**
 * @file
 * A move-only callable wrapper with a fixed 24-byte inline buffer,
 * the one callable type of the timing path (src/mem, src/cpu).
 *
 * No continuation there captures another callback: each waits in one
 * owner (an MSHR entry, a stalled-store slot, a waiter list or one
 * event) and captures `this` plus at most two words. So it fits
 * inline, and an event carrying one InplaceFn plus `this` and two
 * words fits the event queue's 56-byte slot. A larger or over-aligned
 * callable is boxed once. Move-only on purpose: continuations are
 * consumed exactly once.
 *
 * Nearly every such capture is trivially copyable, and a boxed one is
 * a bare pointer: both move by copying the buffer, and the trivial
 * one needs no destroy call. Two flag bits beside the ops-table
 * pointer say which calls a target needs, so a continuation handed
 * from owner to owner costs no indirect call, and no load from its
 * table, until it runs. Only an inline callable with a non-trivial
 * copy or destructor relocates and destroys through its table.
 */

#ifndef PMEMSPEC_COMMON_INPLACE_FN_HH
#define PMEMSPEC_COMMON_INPLACE_FN_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace pmemspec
{

template <typename Sig>
class InplaceFn;

template <typename R, typename... Args>
class InplaceFn<R(Args...)>
{
  public:
    static constexpr std::size_t kInlineBytes = 24;

    InplaceFn() = default;
    InplaceFn(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InplaceFn> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InplaceFn(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(void *) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (buf) Fn(std::forward<F>(f));
            bind(&inlineOps<Fn>, std::is_trivially_copyable_v<Fn>
                                     ? 0
                                     : kRelocate | kDestroy);
        } else {
            ::new (buf) Fn *(new Fn(std::forward<F>(f)));
            // The box pointer moves with the buffer.
            bind(&boxedOps<Fn>, kDestroy);
        }
    }

    InplaceFn(InplaceFn &&o) noexcept : tagged(o.tagged) { take(o); }

    InplaceFn &
    operator=(InplaceFn &&o) noexcept
    {
        if (this == &o)
            return *this;
        reset();
        tagged = o.tagged;
        take(o);
        return *this;
    }

    InplaceFn &
    operator=(std::nullptr_t)
    {
        reset();
        tagged = 0;
        return *this;
    }

    ~InplaceFn() { reset(); }

    explicit operator bool() const { return tagged != 0; }

    R
    operator()(Args... args)
    {
        return ops()->invoke(buf, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /** Move-construct into dst and destroy src. */
        void (*relocate)(void *src, void *dst);
        void (*destroy)(void *);
    };

    /** Flags in the low bits of `tagged`: a move calls relocate (else
     *  it copies the buffer), destruction calls destroy (else there is
     *  nothing to do). */
    static constexpr std::uintptr_t kRelocate = 1;
    static constexpr std::uintptr_t kDestroy = 2;
    static constexpr std::uintptr_t kFlags = kRelocate | kDestroy;
    static_assert(alignof(Ops) > kFlags);

    void
    bind(const Ops *table, std::uintptr_t flags)
    {
        tagged = reinterpret_cast<std::uintptr_t>(table) | flags;
    }

    const Ops *
    ops() const
    {
        return reinterpret_cast<const Ops *>(tagged & ~kFlags);
    }

    /** Move o's target (tagged already copied) and leave o empty. An
     *  empty o copies its zeroed buffer, which is harmless. */
    void
    take(InplaceFn &o) noexcept
    {
        if (tagged & kRelocate)
            ops()->relocate(o.buf, buf);
        else
            std::memcpy(buf, o.buf, kInlineBytes);
        o.tagged = 0;
    }

    /** Destroy the target, if it needs it; tagged is left as is. */
    void
    reset() noexcept
    {
        if (tagged & kDestroy)
            ops()->destroy(buf);
    }

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *p, Args &&...args) -> R {
            return (*static_cast<Fn *>(p))(
                std::forward<Args>(args)...);
        },
        [](void *src, void *dst) {
            Fn *f = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*f));
            f->~Fn();
        },
        [](void *p) { static_cast<Fn *>(p)->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops boxedOps = {
        [](void *p, Args &&...args) -> R {
            return (**static_cast<Fn **>(p))(
                std::forward<Args>(args)...);
        },
        nullptr,
        [](void *p) { delete *static_cast<Fn **>(p); },
    };

    alignas(void *) unsigned char buf[kInlineBytes] = {};
    std::uintptr_t tagged = 0; ///< const Ops * | flags
};

} // namespace pmemspec

#endif // PMEMSPEC_COMMON_INPLACE_FN_HH
