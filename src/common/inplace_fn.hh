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
 */

#ifndef PMEMSPEC_COMMON_INPLACE_FN_HH
#define PMEMSPEC_COMMON_INPLACE_FN_HH

#include <cstddef>
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
            ops = &inlineOps<Fn>;
        } else {
            ::new (buf) Fn *(new Fn(std::forward<F>(f)));
            ops = &boxedOps<Fn>;
        }
    }

    InplaceFn(InplaceFn &&o) noexcept : ops(o.ops)
    {
        if (ops) {
            ops->relocate(o.buf, buf);
            o.ops = nullptr;
        }
    }

    InplaceFn &
    operator=(InplaceFn &&o) noexcept
    {
        if (this == &o)
            return *this;
        if (ops)
            ops->destroy(buf);
        ops = o.ops;
        if (ops) {
            ops->relocate(o.buf, buf);
            o.ops = nullptr;
        }
        return *this;
    }

    InplaceFn &
    operator=(std::nullptr_t)
    {
        if (ops) {
            ops->destroy(buf);
            ops = nullptr;
        }
        return *this;
    }

    ~InplaceFn()
    {
        if (ops)
            ops->destroy(buf);
    }

    explicit operator bool() const { return ops != nullptr; }

    R
    operator()(Args... args)
    {
        return ops->invoke(buf, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /** Move-construct into dst and destroy src. */
        void (*relocate)(void *src, void *dst);
        void (*destroy)(void *);
    };

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
        [](void *src, void *dst) {
            ::new (dst) Fn *(*static_cast<Fn **>(src));
        },
        [](void *p) { delete *static_cast<Fn **>(p); },
    };

    alignas(void *) unsigned char buf[kInlineBytes];
    const Ops *ops = nullptr;
};

} // namespace pmemspec

#endif // PMEMSPEC_COMMON_INPLACE_FN_HH
