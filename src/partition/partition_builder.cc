#include "partition/partition_builder.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"

namespace tane {

StrippedPartition PartitionBuilder::ForAttribute(const Relation& relation,
                                                 int attribute,
                                                 bool stripped) {
  // Invariant: callers iterate the schema, so the index is in range.
  // tane-lint: allow(tane-check)
  TANE_CHECK(attribute >= 0 && attribute < relation.num_columns());
  const Column& column = relation.column(attribute);
  const int64_t rows = relation.num_rows();
  const int64_t card = column.cardinality();

  // Counting sort by code: stable bucketing of row ids by value.
  std::vector<int32_t> counts(card + 1, 0);
  for (int32_t code : column.codes) ++counts[code + 1];
  std::vector<int32_t> starts(counts);
  for (int64_t v = 1; v <= card; ++v) starts[v] += starts[v - 1];

  std::vector<int32_t> bucketed(rows);
  std::vector<int32_t> cursor(starts.begin(), starts.end() - 1);
  for (int64_t row = 0; row < rows; ++row) {
    bucketed[cursor[column.codes[row]]++] = static_cast<int32_t>(row);
  }

  const int32_t min_size = stripped ? 2 : 1;
  StrippedPartition out(rows, stripped);
  out.row_ids_.reserve(rows);
  for (int64_t v = 0; v < card; ++v) {
    const int32_t begin = starts[v];
    const int32_t end = starts[v + 1];
    if (end - begin < min_size) continue;
    out.row_ids_.insert(out.row_ids_.end(), bucketed.begin() + begin,
                        bucketed.begin() + end);
    out.class_offsets_.push_back(static_cast<int32_t>(out.row_ids_.size()));
  }
  out.row_ids_.shrink_to_fit();
  out.class_offsets_.shrink_to_fit();
  return out;
}

std::vector<StrippedPartition> PartitionBuilder::ForAllAttributes(
    const Relation& relation, bool stripped) {
  std::vector<StrippedPartition> partitions;
  partitions.reserve(relation.num_columns());
  for (int a = 0; a < relation.num_columns(); ++a) {
    partitions.push_back(ForAttribute(relation, a, stripped));
  }
  return partitions;
}

StrippedPartition PartitionBuilder::ForAttributeSet(const Relation& relation,
                                                    AttributeSet attributes,
                                                    bool stripped) {
  const int64_t rows = relation.num_rows();
  const std::vector<int> columns = attributes.ToIndices();

  if (columns.empty()) {
    // π_∅ has a single class containing every row.
    StrippedPartition out(rows, stripped);
    if (rows >= (stripped ? 2 : 1)) {
      out.row_ids_.resize(rows);
      for (int64_t row = 0; row < rows; ++row) {
        out.row_ids_[row] = static_cast<int32_t>(row);
      }
      out.class_offsets_.push_back(static_cast<int32_t>(rows));
    }
    return out;
  }

  // Hash each row's code tuple to a dense group id.
  struct TupleHash {
    size_t operator()(const std::vector<int32_t>& tuple) const {
      uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (int32_t code : tuple) {
        h ^= static_cast<uint64_t>(code) + 0x9e3779b97f4a7c15ULL + (h << 6) +
             (h >> 2);
      }
      return static_cast<size_t>(h);
    }
  };
  std::unordered_map<std::vector<int32_t>, int32_t, TupleHash> groups;
  groups.reserve(rows);
  std::vector<std::vector<int32_t>> classes;
  std::vector<int32_t> tuple(columns.size());
  for (int64_t row = 0; row < rows; ++row) {
    for (size_t i = 0; i < columns.size(); ++i) {
      tuple[i] = relation.code(row, columns[i]);
    }
    auto [it, inserted] =
        groups.emplace(tuple, static_cast<int32_t>(classes.size()));
    if (inserted) classes.emplace_back();
    classes[it->second].push_back(static_cast<int32_t>(row));
  }

  const size_t min_size = stripped ? 2 : 1;
  StrippedPartition out(rows, stripped);
  for (const std::vector<int32_t>& cls : classes) {
    if (cls.size() < min_size) continue;
    out.row_ids_.insert(out.row_ids_.end(), cls.begin(), cls.end());
    out.class_offsets_.push_back(static_cast<int32_t>(out.row_ids_.size()));
  }
  return out;
}

}  // namespace tane
