// Mini-HPL: a CUDA-accelerated blocked LU factorization in the style of
// Fatica's heterogeneous Linpack (paper §IV-B/C, Figs. 8 and 9).
//
// Structure per panel iteration (1-D block-column distribution over ranks):
//   1. the owning rank factorizes the panel on the host,
//   2. the panel is broadcast (MPI_Bcast),
//   3. every rank pushes the panel to the GPU with cudaMemcpyAsync, syncs
//      with the CUDA event API (HPL's manual synchronization — the 2-5 s of
//      cudaEventSynchronize per task the paper reports),
//   4. trailing-matrix update on the GPU: dtrsm + dgemm (+ a transpose
//      kernel), i.e. exactly the four kernels visible in Fig. 9.
//
// Asynchronous copies mean @CUDA_HOST_IDLE stays ≈ 0 — the property the
// paper highlights for this code.
#pragma once

#include <memory>
#include <vector>

namespace apps::hpl {

/// Where the BLAS work of the update phase runs.
enum class Backend {
  kHost,    ///< hostblas (the "MKL" baseline)
  kCublas,  ///< cublassim with real numerics (small problems, tests)
};

struct Config {
  int n = 512;           ///< matrix dimension
  int nb = 64;           ///< panel/block width
  Backend backend = Backend::kCublas;
  bool compute_residual = false;  ///< verify ‖LU − A‖ (needs real numerics)
  unsigned seed = 7;
};

struct Result {
  double residual = 0.0;       ///< ‖LU−A‖_max / (‖A‖_max·n), if requested
  double wallclock = 0.0;      ///< virtual seconds on the calling rank
  long long gemm_launches = 0;
};

/// Run the factorization as one rank of an MPI job (call inside a
/// mpisim::run_cluster body; also works standalone as a 1-rank job).
Result run_rank(const Config& cfg);

}  // namespace apps::hpl
