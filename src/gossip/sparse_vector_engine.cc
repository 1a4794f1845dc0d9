#include "gossip/sparse_vector_engine.h"

#include <utility>

#include "common/thread_pool.h"

namespace dgt {

namespace {

// rows[i].*channel scattered into a dense N x N matrix over `sentinel`.
std::vector<std::vector<double>> Densify(
    const std::vector<SparseVectorGossipResult::Row>& rows,
    std::vector<double> SparseVectorGossipResult::Row::*channel,
    double sentinel) {
  std::vector<std::vector<double>> out(
      rows.size(), std::vector<double>(rows.size(), sentinel));
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t k = 0; k < rows[i].cols.size(); ++k) {
      out[i][rows[i].cols[k]] = (rows[i].*channel)[k];
    }
  }
  return out;
}

}  // namespace

std::vector<std::vector<double>> SparseVectorGossipResult::DenseEstimates(
    double sentinel) const {
  return Densify(rows, &Row::estimates, sentinel);
}

std::vector<std::vector<double>>
SparseVectorGossipResult::DenseCountEstimates(double sentinel) const {
  return Densify(rows, &Row::count_estimates, sentinel);
}

Result<SparseVectorGossipResult> SparseVectorPushSum::Run(
    std::vector<SparseVectorRow> init, bool use_count) {
  ThreadPool pool(engine_.options().num_threads);
  DGT_ASSIGN_OR_RETURN(auto run,
                       engine_.Run(std::move(init), use_count, pool));

  SparseVectorGossipResult res;
  static_cast<GossipRunStats&>(res) = run.stats;

  const size_t n = run.values.size();
  res.rows.resize(n);
  pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      SparseVectorRow& row = run.values[i];
      SparseVectorGossipResult::Row& out = res.rows[i];
      size_t kept = 0;
      for (size_t k = 0; k < row.cols.size(); ++k) {
        if (row.g[k] != 0.0) ++kept;
      }
      out.cols.reserve(kept);
      out.estimates.reserve(kept);
      if (use_count) out.count_estimates.reserve(kept);
      for (size_t k = 0; k < row.cols.size(); ++k) {
        if (row.g[k] == 0.0) continue;  // sentinel, i.e. absent
        out.cols.push_back(row.cols[k]);
        out.estimates.push_back(row.y[k] / row.g[k]);
        if (use_count) out.count_estimates.push_back(row.c[k] / row.g[k]);
      }
      // Release the state row eagerly so peak memory is one state row plus
      // the accumulated result, not both in full.
      row = SparseVectorRow();
    }
  });
  return res;
}

}  // namespace dgt
