#ifndef MESA_QUERY_AGGREGATE_H_
#define MESA_QUERY_AGGREGATE_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace mesa {

/// Aggregation functions: the agg(O) of the supported query class, and the
/// folding of one-to-many KG values in extraction.
enum class AggregateFunction {
  kAvg,
  kSum,
  kCount,
  kMin,
  kMax,
  kMedian,
  kStdDev,
};

/// "avg", "sum", ... lower-case stable name.
const char* AggregateFunctionName(AggregateFunction f);

/// Parses "avg"/"AVG"/"mean" etc. into an AggregateFunction.
Result<AggregateFunction> ParseAggregateFunction(const std::string& name);

/// Computes one aggregate over a set of numeric observations. Empty input
/// yields count 0 for kCount and an error otherwise.
Result<double> ComputeAggregate(AggregateFunction f,
                                const std::vector<double>& values);

/// Streaming accumulator for cheap single-pass aggregates; kMedian buffers.
class AggregateAccumulator {
 public:
  explicit AggregateAccumulator(AggregateFunction f);

  void Add(double v);
  size_t count() const { return count_; }

  /// Final aggregate; error on empty non-count input.
  Result<double> Finalize() const;

 private:
  AggregateFunction f_;
  size_t count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<double> buffer_;  // only for kMedian
};

}  // namespace mesa

#endif  // MESA_QUERY_AGGREGATE_H_
