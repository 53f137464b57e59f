#ifndef RAW_SCAN_LOADER_H_
#define RAW_SCAN_LOADER_H_

#include <memory>
#include <vector>

#include "binfmt/binary_reader.h"
#include "columnar/in_memory_table.h"
#include "common/mmap_file.h"
#include "csv/csv_options.h"
#include "eventsim/ref_reader.h"

namespace raw {

/// Bulk loaders implementing the traditional "DBMS" path (§2.1): convert the
/// raw file into fully materialized in-memory columns before the first query
/// can run. Loading cost is what the first-query experiments charge to the
/// DBMS baseline (Fig. 1a, Table 2).

/// Opens `scan`, appends every batch it emits to a new in-memory table and
/// closes it: the load of any format whose scan reads all columns.
StatusOr<std::unique_ptr<InMemoryTable>> Drain(Operator* scan);

/// Loads `columns` of a CSV file (pass all columns for the full DBMS load).
/// `quoted` routes the scan through the quote-aware tokenizer (see
/// CsvScanSpec::quoted).
StatusOr<std::unique_ptr<InMemoryTable>> LoadCsvTable(
    const MmapFile* file, const Schema& file_schema,
    const std::vector<int>& columns, const CsvOptions& options = CsvOptions(),
    bool quoted = false);

/// Loads `columns` of a fixed-width binary file.
StatusOr<std::unique_ptr<InMemoryTable>> LoadBinaryTable(
    const BinaryReader* reader, const std::vector<int>& columns);

/// Loads an REF *event* table: eventID + runNumber.
StatusOr<std::unique_ptr<InMemoryTable>> LoadRefEventTable(RefReader* reader);

/// Loads an REF *particle* table for `group`: eventID, pt, eta, phi.
StatusOr<std::unique_ptr<InMemoryTable>> LoadRefParticleTable(RefReader* reader,
                                                              int group);

}  // namespace raw

#endif  // RAW_SCAN_LOADER_H_
