#include "jit/pipeline_spec.h"

#include <sstream>

namespace raw {

std::string_view ScanModeToString(ScanMode mode) {
  switch (mode) {
    case ScanMode::kSequential:
      return "sequential";
    case ScanMode::kByPosition:
      return "by_position";
    case ScanMode::kByRowIndex:
      return "by_row_index";
  }
  return "?";
}

std::string_view PipelineOutputModeToString(PipelineOutputMode mode) {
  switch (mode) {
    case PipelineOutputMode::kProject:
      return "project";
    case PipelineOutputMode::kAggregate:
      return "aggregate";
  }
  return "?";
}

std::string PipelineSpec::CacheKey() const {
  std::ostringstream os;
  os << "pipe1|" << FileFormatToString(format) << '|'
     << ScanModeToString(scan_mode) << "|d=" << static_cast<int>(delimiter)
     << "|pmap=";
  for (int c : pmap_tracked) os << c << ',';
  os << "|anchor=" << anchor_column << "|rw=" << row_width << "|off=";
  for (int64_t o : column_offsets) os << o << ',';
  os << "|in=";
  for (const PipelineInput& in : inputs) {
    os << in.column << ':' << DataTypeToString(in.type)
       << (in.dense ? ":d" : ":f") << ',';
  }
  os << "|pred=";
  for (const PipelinePredicate& p : predicates) {
    // The literal's type, not its value: values are bound at run time.
    os << p.input << ':' << CompareOpToString(p.op) << ':'
       << DataTypeToString(p.literal.type()) << ',';
  }
  os << "|mode=" << PipelineOutputModeToString(mode) << "|proj=";
  for (int p : projections) os << p << ',';
  os << "|agg=";
  for (const PipelineAgg& a : aggs) {
    os << AggKindToString(a.kind) << ':' << a.input << ',';
  }
  return os.str();
}

Schema FusedAggPartialSchema(const std::vector<PipelineAgg>& aggs) {
  Schema schema;
  for (size_t s = 0; s < aggs.size(); ++s) {
    std::string base = "agg" + std::to_string(s);
    schema.AddField(base + "_count", DataType::kInt64);
    schema.AddField(base + "_dacc", DataType::kFloat64);
    schema.AddField(base + "_iacc", DataType::kInt64);
    schema.AddField(base + "_init", DataType::kInt64);
  }
  return schema;
}

PipelineSpec PipelineSpecFor(const FusedPipelineRequest& req) {
  PipelineSpec spec;
  spec.inputs = req.inputs;
  spec.predicates = req.predicates;
  spec.mode = req.mode;
  spec.projections = req.projections;
  spec.aggs = req.aggs;
  return spec;
}

Schema PipelineOutputSchema(const FusedPipelineRequest& req) {
  return req.mode == PipelineOutputMode::kAggregate
             ? FusedAggPartialSchema(req.aggs)
             : req.output_schema;
}

FusedPipelineRequest ProjectionRequest(const Schema& table_schema,
                                       const std::vector<int>& cols,
                                       const Schema& qualified) {
  FusedPipelineRequest req;
  for (size_t i = 0; i < cols.size(); ++i) {
    req.inputs.push_back(
        PipelineInput{cols[i], table_schema.field(cols[i]).type, false});
    req.dense_columns.push_back(nullptr);
    req.projections.push_back(static_cast<int>(i));
  }
  req.output_schema = qualified;
  return req;
}

}  // namespace raw
