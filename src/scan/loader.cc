#include "scan/loader.h"

#include "scan/insitu_bin_scan.h"
#include "scan/insitu_csv_scan.h"
#include "scan/ref_scan.h"

namespace raw {

StatusOr<std::unique_ptr<InMemoryTable>> Drain(Operator* scan) {
  // Open first: some scans (REF) resolve their output schema at Open().
  RAW_RETURN_NOT_OK(scan->Open());
  auto table = std::make_unique<InMemoryTable>(scan->output_schema());
  while (true) {
    RAW_ASSIGN_OR_RETURN(ColumnBatch batch, scan->Next());
    if (batch.end_of_stream()) break;
    if (batch.empty()) continue;
    RAW_RETURN_NOT_OK(table->AppendBatch(batch));
  }
  RAW_RETURN_NOT_OK(scan->Close());
  return table;
}

StatusOr<std::unique_ptr<InMemoryTable>> LoadCsvTable(
    const MmapFile* file, const Schema& file_schema,
    const std::vector<int>& columns, const CsvOptions& options, bool quoted) {
  CsvScanSpec spec;
  spec.file_schema = file_schema;
  spec.outputs = columns;
  spec.options = options;
  spec.quoted = quoted;
  InsituCsvScanOperator scan(file, std::move(spec));
  return Drain(&scan);
}

StatusOr<std::unique_ptr<InMemoryTable>> LoadBinaryTable(
    const BinaryReader* reader, const std::vector<int>& columns) {
  BinScanSpec spec;
  spec.outputs = columns;
  InsituBinScanOperator scan(reader, std::move(spec));
  return Drain(&scan);
}

StatusOr<std::unique_ptr<InMemoryTable>> LoadRefEventTable(RefReader* reader) {
  RefScanSpec spec;
  spec.group = -1;
  RefTableScanOperator scan(reader, std::move(spec));
  return Drain(&scan);
}

StatusOr<std::unique_ptr<InMemoryTable>> LoadRefParticleTable(RefReader* reader,
                                                              int group) {
  RefScanSpec spec;
  spec.group = group;
  RefTableScanOperator scan(reader, std::move(spec));
  return Drain(&scan);
}

}  // namespace raw
