// Compressed-CSV scans through the pluggable format driver: the same D30
// data as Figures 1a/1b, stored as multi-member gzip.
//   Q1 (cold):  SELECT MAX(col0)  FROM t WHERE col0 < X — serial streaming
//               decompress that builds the block-offset index en route.
//   Q2 (warm):  SELECT MAX(col10) FROM t WHERE col0 < X — decompresses only
//               assigned blocks, morsel-parallel across gzip members.
// Inflate only: every gzip member of the same file decoded through
// GunzipMember (the decoder every scan uses), against zlib's inflate on the
// same members, in MB/s of decoded bytes. `bench_zcsv_scan FILE.csv.gz`
// runs this series over another multi-member file instead of D30's.
// Expect: cold dominated by serial inflate; warm scales with threads
// (compare RAW_NUM_THREADS=1 vs =4) because each morsel inflates its own
// blocks independently; GunzipMember decodes at about 1.9x zlib's MB/s (52-53%
// of zlib's time on D30 at 200k rows and on multiformat_analytics' file,
// zlib 1.2.13, x86-64 Xeon).

#include <zlib.h>

#include <algorithm>

#include "bench/bench_common.h"
#include "common/mmap_file.h"
#include "common/stopwatch.h"
#include "zcsv/inflate.h"

namespace raw::bench {
namespace {

std::unique_ptr<RawEngine> ZcsvEngine(Dataset* dataset) {
  auto engine = std::make_unique<RawEngine>();
  std::string path = CheckOk(dataset->D30CsvGz(), "D30 csv.gz");
  CheckOk(engine->RegisterCsvGz("t", path, dataset->D30Spec().ToSchema()),
          "register csv.gz");
  return engine;
}

/// One pass over every member with zlib's inflate, each member decoded into
/// the start of one reused buffer: one stream, reset per member (zlib's
/// fastest use). Returns the decoded bytes; folds them into `*crc`.
size_t ZlibPass(const MmapFile& file, std::vector<char>* buffer,
                uint32_t* crc) {
  z_stream zs{};
  if (inflateInit2(&zs, 16 + MAX_WBITS) != Z_OK) {
    CheckOk(Status::Internal("inflateInit2"), "zlib");
  }
  size_t in_off = 0;
  size_t decoded = 0;
  while (in_off < file.size()) {
    inflateReset(&zs);
    zs.next_in =
        reinterpret_cast<Bytef*>(const_cast<char*>(file.data() + in_off));
    zs.avail_in = static_cast<uInt>(file.size() - in_off);
    size_t out_off = 0;
    int rc = Z_OK;
    while (rc == Z_OK) {
      if (buffer->size() - out_off < 64 * 1024) {
        buffer->resize(buffer->size() * 2 + 64 * 1024);
      }
      zs.next_out = reinterpret_cast<Bytef*>(buffer->data() + out_off);
      zs.avail_out = static_cast<uInt>(buffer->size() - out_off);
      rc = inflate(&zs, Z_NO_FLUSH);
      out_off = buffer->size() - zs.avail_out;
    }
    if (rc != Z_STREAM_END) {
      CheckOk(Status::DataCorruption("zlib inflate"), "zlib");
    }
    if (crc != nullptr) {
      *crc = static_cast<uint32_t>(crc32_z(
          *crc, reinterpret_cast<const Bytef*>(buffer->data()), out_off));
    }
    decoded += out_off;
    in_off = file.size() - zs.avail_in;
  }
  inflateEnd(&zs);
  return decoded;
}

/// The same pass through GunzipMember, as a cold scan calls it: one
/// reusable buffer, grown once.
size_t OursPass(const MmapFile& file, InflateBuffer* buffer, uint32_t* crc) {
  size_t in_off = 0;
  size_t decoded = 0;
  while (in_off < file.size()) {
    size_t consumed = 0;
    CheckOk(GunzipMember(file.data() + in_off, file.size() - in_off, buffer,
                         &consumed),
            "GunzipMember");
    if (crc != nullptr) {
      *crc = static_cast<uint32_t>(
          crc32_z(*crc, reinterpret_cast<const Bytef*>(buffer->data()),
                  buffer->size()));
    }
    decoded += buffer->size();
    in_off += consumed;
  }
  return decoded;
}

/// Inflate-only series: median of alternating passes of both decoders.
void RunInflateSeries(const std::string& path) {
  auto file = CheckOk(MmapFile::Open(path), "open csv.gz");
  PrintTitle("Inflate only — GunzipMember vs zlib inflate, same members");
  std::vector<char> zlib_buffer;
  InflateBuffer buffer;
  uint32_t crc = 0;
  uint32_t zlib_crc = 0;
  const size_t decoded = OursPass(*file, &buffer, &crc);
  const size_t zlib_decoded = ZlibPass(*file, &zlib_buffer, &zlib_crc);
  if (decoded != zlib_decoded || crc != zlib_crc) {
    CheckOk(Status::Internal("decoders disagree"), "inflate series");
  }
  // Alternating passes; the speedup is the median of the per-pair ratios,
  // which a drift in the host's speed between pairs does not skew.
  constexpr int kPasses = 15;
  std::vector<double> ours;
  std::vector<double> zlib;
  std::vector<double> ratio;
  for (int i = 0; i < kPasses; ++i) {
    Stopwatch watch;
    OursPass(*file, &buffer, nullptr);
    ours.push_back(watch.ElapsedSeconds());
    watch.Restart();
    ZlibPass(*file, &zlib_buffer, nullptr);
    zlib.push_back(watch.ElapsedSeconds());
    ratio.push_back(ours.back() / zlib.back());
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double ours_s = median(ours);
  const double zlib_s = median(zlib);
  const double share = median(ratio);
  const double mb = static_cast<double>(decoded) / 1e6;
  printf("file=%s  compressed=%.1f MB  decoded=%.1f MB  passes=%d\n",
         path.c_str(), static_cast<double>(file->size()) / 1e6, mb, kPasses);
  printf("%-28s %9.3fs %9.1f MB/s\n", "Inflate-GunzipMember", ours_s,
         mb / ours_s);
  printf("%-28s %9.3fs %9.1f MB/s\n", "Inflate-zlib", zlib_s, mb / zlib_s);
  printf("%-28s %9.2fx (time %.0f%% of zlib's, median of pairs)\n",
         "Inflate-speedup", 1.0 / share, 100.0 * share);
  RecordJson("Inflate-GunzipMember", ours_s);
  RecordJson("Inflate-zlib", zlib_s);
}

void Run(const char* inflate_path) {
  Dataset dataset = CheckOk(Dataset::Open(), "dataset");
  std::vector<double> sels = Selectivities();
  PrintTitle("Compressed-CSV scans — cold (index build) vs warm "
             "(block-parallel)");
  printf("rows=%lld  num_threads=%d  query: %s\n",
         static_cast<long long>(dataset.d30_rows()), BenchNumThreads(),
         Q2(&dataset, 0.5).c_str());
  PrintSeriesHeader("series", sels);

  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;

  std::vector<double> cold;
  std::vector<double> warm;
  bool printed_plan = false;
  for (double sel : sels) {
    auto engine = ZcsvEngine(&dataset);
    auto session = engine->OpenSession();
    cold.push_back(TimedQuery(session.get(), Q1(&dataset, sel), options));
    warm.push_back(TimedQuery(session.get(), Q2(&dataset, sel), options));
    if (!printed_plan) {
      // Show that the warm scan really is block-parallel over the index
      // (shred cache off, else the plan shortcuts to cached columns).
      PlannerOptions scan_only = options;
      scan_only.use_shred_cache = false;
      QueryResult warm_plan =
          CheckOk(session->Query(Q2(&dataset, sel), scan_only), "warm plan");
      printf("warm plan: %s\n", warm_plan.plan_description.c_str());
      printed_plan = true;
    }
  }
  PrintSeriesRow("Zcsv-cold", cold, sels);
  PrintSeriesRow("Zcsv-warm", warm, sels);

  printf("\nExpect: cold is serial inflate-bound; warm decompresses only\n"
         "assigned blocks and scales with RAW_NUM_THREADS.\n");

  RunInflateSeries(inflate_path != nullptr
                       ? std::string(inflate_path)
                       : CheckOk(dataset.D30CsvGz(), "D30 csv.gz"));
  printf("\nExpect: GunzipMember decodes at about 1.9x zlib's MB/s (x86-64,\n"
         "zlib 1.2.13); at most 60%% of zlib's time.\n");
}

}  // namespace
}  // namespace raw::bench

int main(int argc, char** argv) {
  raw::bench::Run(argc > 1 ? argv[1] : nullptr);
  return 0;
}
