// A (layer x head) grid of per-head selector instances created from one
// SelectorFactory, owned by the decode engine.
#pragma once

#include <memory>
#include <vector>

#include "core/kv_selector.hpp"
#include "util/common.hpp"

namespace ckv {

class SelectorBank {
 public:
  SelectorBank(Index num_layers, Index num_heads, Index head_dim,
               const SelectorFactory& factory);

  [[nodiscard]] Index num_layers() const noexcept { return num_layers_; }
  [[nodiscard]] Index num_heads() const noexcept { return num_heads_; }

  [[nodiscard]] KVSelector& at(Index layer, Index head);
  [[nodiscard]] const KVSelector& at(Index layer, Index head) const;

  /// Calls `fn` on every selector in (layer, head) order, layer-major.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (const auto& selector : selectors_) {
      fn(*selector);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& selector : selectors_) {
      fn(static_cast<const KVSelector&>(*selector));
    }
  }

  /// Name reported by the underlying method.
  [[nodiscard]] std::string method_name() const;

 private:
  Index num_layers_;
  Index num_heads_;
  std::vector<std::unique_ptr<KVSelector>> selectors_;  ///< layer-major
};

}  // namespace ckv
