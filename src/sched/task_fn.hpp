// Type-erased nullary closures with small-buffer optimization.
//
// basic_fn<N> is a move-only `void()` wrapper whose closure lives inline in
// the owning object up to N bytes (one heap allocation beyond that). Two
// instantiations serve the runtime:
//
//   task_fn — every spawned task's body (user function + bound arguments);
//             120 inline bytes cover typical pipelines' stage closures.
//   hook_fn — completion hooks (tracker deregistration, hyperqueue view
//             reduction, call/root signalling); every runtime hook captures
//             at most a pointer pair or a shared_ptr + pointer, so 24 inline
//             bytes make completion allocation-free.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace hq {

template <std::size_t InlineBytes>
class basic_fn;

namespace detail {
/// Any basic_fn instantiation — the converting constructor must reject them
/// all, not just its own size, or a task_fn passed where a hook_fn is
/// expected would silently double-wrap through the heap path.
template <typename T>
struct is_basic_fn : std::false_type {};
template <std::size_t N>
struct is_basic_fn<basic_fn<N>> : std::true_type {};
}  // namespace detail

/// Move-only `void()` callable wrapper tuned for task frames.
template <std::size_t InlineBytes>
class basic_fn {
 public:
  static constexpr std::size_t kInlineBytes = InlineBytes;

  /// True when a closure of type Fn is stored inline (no allocation).
  template <typename Fn>
  static constexpr bool fits_inline =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  basic_fn() = default;

  template <typename F,
            typename = std::enable_if_t<!detail::is_basic_fn<std::decay_t<F>>::value>>
  basic_fn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>, "task body must be callable as void()");
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &vtable_inline<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = &vtable_heap<Fn>;
    }
  }

  basic_fn(basic_fn&& other) noexcept { move_from(std::move(other)); }

  basic_fn& operator=(basic_fn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(std::move(other));
    }
    return *this;
  }

  basic_fn(const basic_fn&) = delete;
  basic_fn& operator=(const basic_fn&) = delete;

  ~basic_fn() { reset(); }

  /// Invoke the stored closure. Must not be empty.
  void operator()() { vt_->invoke(buf_); }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  void reset() noexcept {
    if (vt_) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

 private:
  struct vtable {
    void (*invoke)(void*);
    void (*destroy)(void*) noexcept;
    void (*relocate)(void* dst, void* src) noexcept;  // move + destroy src
  };

  template <typename Fn>
  static constexpr vtable vtable_inline = {
      [](void* p) { (*std::launder(static_cast<Fn*>(p)))(); },
      [](void* p) noexcept { std::launder(static_cast<Fn*>(p))->~Fn(); },
      [](void* dst, void* src) noexcept {
        Fn* s = std::launder(static_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      },
  };

  template <typename Fn>
  static constexpr vtable vtable_heap = {
      [](void* p) { (**std::launder(static_cast<Fn**>(p)))(); },
      [](void* p) noexcept { delete *std::launder(static_cast<Fn**>(p)); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*std::launder(static_cast<Fn**>(src)));
      },
  };

  void move_from(basic_fn&& other) noexcept {
    vt_ = other.vt_;
    if (vt_) {
      vt_->relocate(buf_, other.buf_);
      other.vt_ = nullptr;
    }
  }

  const vtable* vt_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

using task_fn = basic_fn<120>;
using hook_fn = basic_fn<24>;

}  // namespace hq
