// Wrapper-generator spec model and parser.
//
// The paper (§III-A, §III-D) generates all interposition wrappers from a
// "formal specification file derived from the headers".  Our spec format is
// line-based:
//
//   !include "cudasim/real.h"          // emitted verbatim as #include
//   !real_prefix cudasim_real_         // prefix of the real entry points
//   !timed ipm::cuda::timed_call       // generic timed-wrapper helper
//
//   ret | name | arg list | attrs
//
// Attrs (space separated):
//   plain                      default Fig. 2 wrapper
//   bytes={expr}               operand size expression over argument names
//   select={expr}              selector expression (stream index, peer, ...)
//   memcpy kind={arg}          memory transfer; direction from a kind arg
//   memcpy dir=h2d|d2h|d2d     memory transfer; fixed direction
//   sync | async               transfer blocks the host / does not
//   stream={arg} | stream=default
//   launch func={arg}          kernel launch (KTT insertion);
//                              stream=pending uses the configured stream
//   configure stream={arg}     cudaConfigureCall (remembers the stream)
//   init | finalize            MPI_Init / MPI_Finalize specials
//   nostatus                   the return value is a queried status, not an
//                              error (cudaGetLastError, cudaEventQuery...):
//                              suppress error-key accounting for this call
//
// Error accounting: every wrapper passes its call's ipm::ErrDomain to the
// helper, derived from the return type: cudaError_t, CUresult,
// cublasStatus, cufftResult, or int for MPI_*.  The helper records a failed
// call under a separate per-error-code hash key.  Every other return type,
// and any call marked `nostatus`, passes ErrDomain::kNone and always
// records a success, so one helper form serves every wrapper.
#pragma once

#include <string>
#include <vector>

namespace wrapgen {

enum class CallKind { kPlain, kMemcpy, kLaunch, kConfigure, kInit, kFinalize };

struct Param {
  std::string type;  ///< e.g. "const void*"
  std::string name;  ///< e.g. "src"
};

struct CallSpec {
  std::string ret;   ///< return type
  std::string name;  ///< public symbol
  std::vector<Param> params;
  CallKind kind = CallKind::kPlain;
  std::string bytes_expr = "0";
  std::string select_expr = "0";
  std::string kind_arg;    ///< memcpy: name of the cudaMemcpyKind argument
  std::string fixed_dir;   ///< memcpy: "h2d"/"d2h"/"d2d" when no kind arg
  bool sync = true;        ///< memcpy: blocking?
  bool nostatus = false;   ///< return value is a query result, not an error
  std::string stream_arg;  ///< "" = default stream / pending
  std::string func_arg;    ///< launch: kernel handle argument
};

struct SpecFile {
  std::vector<std::string> includes;
  std::string real_prefix = "real_";
  std::string timed_helper = "ipm::timed_event";
  std::vector<CallSpec> calls;
};

/// Parse a spec document; throws std::runtime_error with line info.
[[nodiscard]] SpecFile parse_spec(const std::string& text);
[[nodiscard]] SpecFile parse_spec_file(const std::string& path);

/// Emit the --wrap interposition wrappers (__wrap_<name> bodies).
[[nodiscard]] std::string emit_wrap(const SpecFile& spec);

/// Emit LD_PRELOAD wrappers (public symbol bodies resolving the real
/// function via ipm::preload::resolve_next).
[[nodiscard]] std::string emit_preload(const SpecFile& spec);

/// Emit the CMake symbol list for ipm_enable_monitoring().
[[nodiscard]] std::string emit_symbols(const std::vector<SpecFile>& specs);

}  // namespace wrapgen
