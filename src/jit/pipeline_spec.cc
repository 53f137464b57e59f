#include "jit/pipeline_spec.h"

#include <sstream>

namespace raw {

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
  os << "pipe1|" << scan.CacheKey() << "|in=";
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

}  // namespace raw
