#ifndef RAW_JIT_TEMPLATE_CACHE_H_
#define RAW_JIT_TEMPLATE_CACHE_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "jit/cc_compiler.h"
#include "jit/pipeline_codegen.h"
#include "jit/pipeline_spec.h"

namespace raw {

/// Read-only counters describing the template cache (see RawEngine::Stats()).
struct JitCacheStats {
  int64_t entries = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t compiles = 0;  // successful external-compiler invocations
  double total_compile_seconds = 0;
  bool compiler_available = false;
  /// Kernels queued for, or being compiled by, the background compiler.
  int64_t pending = 0;
  /// Successful compiles the background compiler ran (part of `compiles`).
  int64_t background_compiles = 0;
  /// Compiles that failed, in the foreground or the background.
  int64_t failed = 0;
};

/// What a non-blocking kernel request found (JitTemplateCache::Request).
enum class JitKernelState {
  kReady,       // compiled and cached: plan the generated operator
  kCompiling,   // queued for, or running on, the background compiler
  kNoCompiler,  // no external compiler on this host
  kFailed,      // an earlier compile of this very spec failed
};

/// The plan-text reason for a kernel that is not ready ("compiling", "no
/// compiler", "compile failed"); empty for kReady.
std::string_view JitKernelStateReason(JitKernelState state);

/// The template cache of §3: generated libraries are registered under their
/// kernel specification (PipelineSpec::CacheKey()) and reused when the same
/// kernel is requested again, amortizing compilation across queries.
///
/// Two ways in:
///  * GetOrCompile blocks until the kernel exists (compiling it on the
///    calling thread on a miss) — operators call it at Open().
///  * Request never blocks: it reports whether the kernel is ready and, on a
///    miss, queues the compile for the cache's own background thread, so a
///    planner can run the query interpreted meanwhile (adaptive execution:
///    the next query of the shape finds the kernel compiled).
///
/// Thread-safety: lookups take a short lock; compilation runs *outside* the
/// lock, with an in-flight set (queued and compiling keys) so concurrent
/// requests for the same spec compile once (later blocking callers wait on
/// the first; a blocking caller takes a key still waiting in the queue over
/// and compiles it itself) while requests for different specs compile in
/// parallel. The background thread runs one compiler process at a time and
/// remembers failed keys, which Request then reports instead of retrying.
/// Destruction drops queued work and joins the compile that is running.
/// Returned kernels keep their shared object mapped via shared_ptr, so
/// Clear() never unloads code in use.
class JitTemplateCache {
 public:
  explicit JitTemplateCache(CcCompilerOptions compiler_options = {});
  ~JitTemplateCache();

  JitTemplateCache(const JitTemplateCache&) = delete;
  JitTemplateCache& operator=(const JitTemplateCache&) = delete;

  /// Returns the kernel for `spec`, generating + compiling on a miss.
  /// `kernel.compile_seconds` is the time this call waited for the compiler
  /// (its own compile, or another caller's in-flight one); 0 on a hit.
  StatusOr<CompiledKernel> GetOrCompile(const PipelineSpec& spec);

  /// Non-blocking: kReady when the kernel is cached (a GetOrCompile for it
  /// then returns at once), else queues its compile in the background (at
  /// most once per key) and says why the caller cannot have it now.
  JitKernelState Request(const PipelineSpec& spec);

  bool compiler_available() const { return compiler_available_; }

  /// The resolved external-compiler configuration (diagnostics: which binary
  /// was probed when compiler_available() is false).
  const CcCompilerOptions& compiler_options() const {
    return compiler_.options();
  }

  JitCacheStats Stats() const;

  int64_t hits() const { return Stats().hits; }
  int64_t misses() const { return Stats().misses; }
  double total_compile_seconds() const {
    return Stats().total_compile_seconds;
  }
  int64_t size() const { return Stats().entries; }

  /// Drops every cached kernel and every remembered failure (queued
  /// background compiles still run and land in the emptied cache).
  void Clear();

 private:
  using Emitter = std::function<StatusOr<std::string>()>;

  /// One queued background compile.
  struct Job {
    std::string key;
    std::string hint;
    Emitter emit;
  };

  /// The hit/in-flight/compile flow behind GetOrCompile. `emit` generates
  /// the translation unit on a miss.
  StatusOr<CompiledKernel> GetOrCompileKey(const std::string& key,
                                           const std::string& hint,
                                           const Emitter& emit);
  JitKernelState RequestKey(std::string key, std::string hint, Emitter emit);

  /// Generates and compiles outside the lock.
  StatusOr<CompiledKernel> Compile(const std::string& hint,
                                   const Emitter& emit);
  /// Records a finished compile of `key` (caller holds mutex_): clears its
  /// in-flight mark, then caches the kernel or remembers the failure.
  void FinishLocked(const std::string& key,
                    const StatusOr<CompiledKernel>& kernel);

  void BackgroundLoop();

  CcCompiler compiler_;
  bool compiler_available_;

  mutable std::mutex mutex_;
  std::condition_variable inflight_cv_;
  std::unordered_map<std::string, CompiledKernel> cache_;
  std::set<std::string> inflight_;  // specs queued or being compiled
  std::set<std::string> failed_keys_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t compiles_ = 0;
  int64_t background_compiles_ = 0;
  int64_t failed_ = 0;
  double total_compile_seconds_ = 0;

  // Background compiler: started on the first queued job.
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  int64_t background_running_ = 0;
  bool stopping_ = false;
  std::thread worker_;
};

}  // namespace raw

#endif  // RAW_JIT_TEMPLATE_CACHE_H_
