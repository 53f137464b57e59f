#include "jit/cc_compiler.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "common/mmap_file.h"
#include "common/stopwatch.h"

#ifndef RAW_JIT_CXX
#define RAW_JIT_CXX "c++"
#endif
#ifndef RAW_JIT_INCLUDE_DIR
#define RAW_JIT_INCLUDE_DIR "."
#endif

namespace raw {

namespace {

std::string DefaultCxx() {
  const char* env = std::getenv("RAW_JIT_CXX");
  return env != nullptr ? env : RAW_JIT_CXX;
}

std::string DefaultIncludeDir() {
  const char* env = std::getenv("RAW_JIT_INCLUDE_DIR");
  return env != nullptr ? env : RAW_JIT_INCLUDE_DIR;
}

/// Runs `command` capturing combined stdout/stderr; returns exit status.
int RunCommand(const std::string& command, std::string* output) {
  std::string cmd = command + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) *output += buf;
  return pclose(pipe);
}

/// True when `source` includes a C++ header (`#include <charconv>`), whose
/// code may call into the C++ runtime; C headers end in ".h".
bool IncludesCxxHeader(const std::string& source) {
  constexpr std::string_view kInclude = "#include <";
  for (size_t pos = source.find(kInclude); pos != std::string::npos;
       pos = source.find(kInclude, pos)) {
    pos += kInclude.size();
    const size_t end = source.find('>', pos);
    if (end == std::string::npos) return true;
    if (!std::string_view(source).substr(pos, end - pos).ends_with(".h")) {
      return true;
    }
  }
  return false;
}

}  // namespace

CcCompiler::CcCompiler(CcCompilerOptions options)
    : options_(std::move(options)) {
  if (options_.cxx.empty()) options_.cxx = DefaultCxx();
  if (options_.include_dir.empty()) options_.include_dir = DefaultIncludeDir();
}

bool CcCompiler::IsAvailable() const {
  std::string out;
  return RunCommand(options_.cxx + " --version", &out) == 0;
}

Status CcCompiler::EnsureScratchDir() {
  if (scratch_ != nullptr) return Status::OK();
  RAW_ASSIGN_OR_RETURN(TempDir dir, TempDir::Create("raw_jit_"));
  scratch_ = std::make_unique<TempDir>(std::move(dir));
  return Status::OK();
}

StatusOr<CompiledKernel> CcCompiler::Compile(const std::string& source,
                                             const std::string& name_hint) {
  Stopwatch watch;
  std::string src_path;
  std::string lib_path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RAW_RETURN_NOT_OK(EnsureScratchDir());
    std::string base = name_hint + "_" + std::to_string(counter_++);
    src_path = scratch_->FilePath(base + ".cc");
    lib_path = scratch_->FilePath(base + ".so");
  }
  RAW_RETURN_NOT_OK(WriteStringToFile(src_path, source));

  std::string command = options_.cxx + " " + options_.flags + " -I" +
                        options_.include_dir + " -o " + lib_path + " " +
                        src_path;
  if (!IncludesCxxHeader(source)) command += " -nostdlib";
  std::string output;
  int rc = RunCommand(command, &output);
  if (rc != 0) {
    return Status::Internal("JIT compilation failed (" + command +
                            "):\n" + output);
  }
  if (!options_.keep_sources) ::remove(src_path.c_str());

  RAW_ASSIGN_OR_RETURN(std::unique_ptr<SharedLibrary> library,
                       SharedLibrary::Load(lib_path));
  RAW_ASSIGN_OR_RETURN(void* sym, library->Symbol(RAW_JIT_ENTRY_SYMBOL));
  CompiledKernel kernel;
  kernel.library = std::move(library);
  kernel.entry = reinterpret_cast<RawJitScanFn>(sym);
  kernel.compile_seconds = watch.ElapsedSeconds();
  return kernel;
}

}  // namespace raw
