#include "jit/template_cache.h"

#include <algorithm>

#include "common/hash.h"
#include "common/stopwatch.h"

namespace raw {

namespace {

std::string PipelineHint(const PipelineSpec& spec, const std::string& key) {
  return "pipe_" + std::string(FileFormatToString(spec.format)) + "_" +
         HashToHex(Fnv1a64(key));
}

}  // namespace

std::string_view JitKernelStateReason(JitKernelState state) {
  switch (state) {
    case JitKernelState::kReady:
      return "";
    case JitKernelState::kCompiling:
      return "compiling";
    case JitKernelState::kNoCompiler:
      return "no compiler";
    case JitKernelState::kFailed:
      return "compile failed";
  }
  return "";
}

JitTemplateCache::JitTemplateCache(CcCompilerOptions compiler_options)
    : compiler_(std::move(compiler_options)),
      compiler_available_(compiler_.IsAvailable()) {}

JitTemplateCache::~JitTemplateCache() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    for (const Job& job : queue_) inflight_.erase(job.key);
    queue_.clear();
  }
  queue_cv_.notify_all();
  inflight_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

StatusOr<CompiledKernel> JitTemplateCache::GetOrCompile(
    const PipelineSpec& spec) {
  std::string key = spec.CacheKey();
  return GetOrCompileKey(key, PipelineHint(spec, key),
                         [&] { return GeneratePipelineSource(spec); });
}

JitKernelState JitTemplateCache::Request(const PipelineSpec& spec) {
  std::string key = spec.CacheKey();
  std::string hint = PipelineHint(spec, key);
  return RequestKey(std::move(key), std::move(hint),
                    [spec] { return GeneratePipelineSource(spec); });
}

StatusOr<CompiledKernel> JitTemplateCache::GetOrCompileKey(
    const std::string& key, const std::string& hint, const Emitter& emit) {
  Stopwatch waited;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    bool blocked = false;
    while (true) {
      auto it = cache_.find(key);
      if (it != cache_.end()) {
        ++hits_;
        CompiledKernel kernel = it->second;
        kernel.compile_seconds = blocked ? waited.ElapsedSeconds() : 0;
        return kernel;
      }
      if (inflight_.count(key) == 0) break;
      // Still waiting in the background queue: compile it here instead of
      // waiting behind every job queued before it.
      auto queued =
          std::find_if(queue_.begin(), queue_.end(),
                       [&](const Job& job) { return job.key == key; });
      if (queued != queue_.end()) {
        queue_.erase(queued);
        inflight_.erase(key);
        break;
      }
      // Another thread is compiling this very spec; wait for its result
      // instead of duplicating the external-compiler invocation.
      blocked = true;
      inflight_cv_.wait(lock);
    }
    ++misses_;
    if (!compiler_available_) {
      return Status::NotImplemented(
          "no external C++ compiler available for JIT compilation");
    }
    inflight_.insert(key);
  }

  // Generation + compilation run unlocked: distinct specs compile in
  // parallel. The in-flight marker must be cleared on every exit path.
  StatusOr<CompiledKernel> kernel = Compile(hint, emit);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    FinishLocked(key, kernel);
  }
  inflight_cv_.notify_all();
  if (kernel.ok()) kernel->compile_seconds = waited.ElapsedSeconds();
  return kernel;
}

JitKernelState JitTemplateCache::RequestKey(std::string key, std::string hint,
                                            Emitter emit) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (cache_.count(key) != 0) return JitKernelState::kReady;
  ++misses_;
  if (!compiler_available_) return JitKernelState::kNoCompiler;
  if (failed_keys_.count(key) != 0) return JitKernelState::kFailed;
  if (inflight_.insert(key).second && !stopping_) {
    queue_.push_back(Job{std::move(key), std::move(hint), std::move(emit)});
    if (!worker_.joinable()) {
      worker_ = std::thread([this] { BackgroundLoop(); });
    }
    queue_cv_.notify_one();
  }
  return JitKernelState::kCompiling;
}

StatusOr<CompiledKernel> JitTemplateCache::Compile(const std::string& hint,
                                                   const Emitter& emit) {
  RAW_ASSIGN_OR_RETURN(std::string source, emit());
  return compiler_.Compile(source, hint);
}

void JitTemplateCache::FinishLocked(const std::string& key,
                                    const StatusOr<CompiledKernel>& kernel) {
  inflight_.erase(key);
  if (kernel.ok()) {
    ++compiles_;
    total_compile_seconds_ += kernel->compile_seconds;
    cache_[key] = *kernel;
    failed_keys_.erase(key);
  } else {
    ++failed_;
    failed_keys_.insert(key);
  }
}

void JitTemplateCache::BackgroundLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;
    Job job = std::move(queue_.front());
    queue_.pop_front();
    ++background_running_;
    lock.unlock();
    StatusOr<CompiledKernel> kernel = Compile(job.hint, job.emit);
    lock.lock();
    --background_running_;
    FinishLocked(job.key, kernel);
    if (kernel.ok()) ++background_compiles_;
    inflight_cv_.notify_all();
  }
}

JitCacheStats JitTemplateCache::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JitCacheStats stats;
  stats.entries = static_cast<int64_t>(cache_.size());
  stats.hits = hits_;
  stats.misses = misses_;
  stats.compiles = compiles_;
  stats.total_compile_seconds = total_compile_seconds_;
  stats.compiler_available = compiler_available_;
  stats.pending = static_cast<int64_t>(queue_.size()) + background_running_;
  stats.background_compiles = background_compiles_;
  stats.failed = failed_;
  return stats;
}

void JitTemplateCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.clear();
  failed_keys_.clear();
}

}  // namespace raw
