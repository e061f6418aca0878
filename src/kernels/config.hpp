// Description of the GEMM tile the kernel layer is compiled with.
//
// There is one tile and no way to change it: the kMr x kNr register tile
// over kMc x kKc x kNc cache blocks declared in kernels/gemm.hpp. This
// header only renders it for the environment lines that benches, the
// trainer log and /statusz print.
#pragma once

#include <cstdint>
#include <string>

#include "kernels/gemm.hpp"

namespace gea::kernels {

struct KernelConfig {
  enum class Source : std::uint8_t { kDefault };
  Source source = Source::kDefault;

  /// "mr=4 nr=8 mc=64 kc=256 nc=512 source=default".
  std::string summary() const {
    return "mr=" + std::to_string(kMr) + " nr=" + std::to_string(kNr) +
           " mc=" + std::to_string(kMc) + " kc=" + std::to_string(kKc) +
           " nc=" + std::to_string(kNc) + " source=default";
  }
};

inline const char* source_name(KernelConfig::Source) { return "default"; }
inline KernelConfig active_config() { return {}; }
inline std::string active_config_summary() { return active_config().summary(); }

}  // namespace gea::kernels
