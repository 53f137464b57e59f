#ifndef RAW_JIT_CC_COMPILER_H_
#define RAW_JIT_CC_COMPILER_H_

#include <memory>
#include <mutex>
#include <string>

#include "common/macros.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/temp_dir.h"
#include "jit/jit_abi.h"
#include "jit/shared_library.h"

namespace raw {

/// A compiled, loaded scan kernel. Keeps its shared object mapped.
struct CompiledKernel {
  std::shared_ptr<SharedLibrary> library;
  RawJitScanFn entry = nullptr;
  double compile_seconds = 0;  // 0 when served from a cache
};

/// Options for the external-compiler driver.
struct CcCompilerOptions {
  /// Compiler binary; defaults to the compiler that built the engine
  /// (or $RAW_JIT_CXX).
  std::string cxx;
  /// Optimization and codegen flags, mirroring the paper's build
  /// (-O3 -march=native; §4.2 uses GCC with -msse4 -O3).
  std::string flags = "-std=c++20 -O3 -march=native -fPIC -shared";
  /// Include dir containing jit/jit_abi.h; defaults to the build-time path
  /// (or $RAW_JIT_INCLUDE_DIR).
  std::string include_dir;
  /// Keep generated sources on disk after loading (debugging aid).
  bool keep_sources = false;
};

/// Drives the external C++ compiler: writes a generated translation unit to
/// a scratch directory, produces a shared object, dlopens it and resolves the
/// kernel entry point. This is the paper's compilation strategy ("the
/// freshly-compiled library is dynamically loaded into RAW", §3). A TU that
/// includes C headers only is linked with -nostdlib: it calls nothing from
/// the C++ runtime, and its few libc calls (memchr) bind to the libc the
/// host process already loaded, so its link step is several times cheaper.
/// A TU that includes a C++ header (<charconv> for CSV float parsing) links
/// the standard libraries.
class CcCompiler {
 public:
  explicit CcCompiler(CcCompilerOptions options = CcCompilerOptions());

  /// True when a working external compiler is available on this host.
  bool IsAvailable() const;

  /// Compiles `source` and loads the resulting kernel. `name_hint` becomes
  /// part of the scratch file names. Safe to call concurrently: each call
  /// gets a unique scratch file pair and the external compiler runs without
  /// holding any lock.
  StatusOr<CompiledKernel> Compile(const std::string& source,
                                   const std::string& name_hint);

  const CcCompilerOptions& options() const { return options_; }

 private:
  Status EnsureScratchDir();

  CcCompilerOptions options_;
  std::mutex mu_;  // guards scratch_ creation and counter_
  std::unique_ptr<TempDir> scratch_;
  int64_t counter_ = 0;
};

}  // namespace raw

#endif  // RAW_JIT_CC_COMPILER_H_
