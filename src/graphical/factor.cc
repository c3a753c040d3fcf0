#include "graphical/factor.h"

#include <algorithm>

namespace pf {

bool Factor::Contains(int var) const {
  return std::find(scope.begin(), scope.end(), var) != scope.end();
}

Factor CptFactor(const std::vector<int>& parents,
                 const std::vector<int>& parent_arities, int child,
                 int child_arity, const Matrix& cpt) {
  Factor f;
  f.scope = parents;
  f.scope.push_back(child);
  f.arity = parent_arities;
  f.arity.push_back(child_arity);
  // The CPT is row-major over (parent assignment, child value) — exactly
  // the factor's mixed-radix order with the child least significant.
  f.values.reserve(cpt.rows() * cpt.cols());
  for (std::size_t r = 0; r < cpt.rows(); ++r) {
    const double* row = cpt.RowPtr(r);
    f.values.insert(f.values.end(), row, row + cpt.cols());
  }
  return f;
}

Factor Reduce(const Factor& f, int var, int value) {
  const auto it = std::find(f.scope.begin(), f.scope.end(), var);
  if (it == f.scope.end()) return f;
  const std::size_t pos = static_cast<std::size_t>(it - f.scope.begin());
  // Strides: block = cells below `var`, outer = cells above it.
  std::size_t block = 1;
  for (std::size_t i = pos + 1; i < f.scope.size(); ++i) {
    block *= static_cast<std::size_t>(f.arity[i]);
  }
  const std::size_t var_arity = static_cast<std::size_t>(f.arity[pos]);
  const std::size_t outer = f.size() / (block * var_arity);
  Factor out;
  out.scope = f.scope;
  out.scope.erase(out.scope.begin() + static_cast<std::ptrdiff_t>(pos));
  out.arity = f.arity;
  out.arity.erase(out.arity.begin() + static_cast<std::ptrdiff_t>(pos));
  out.values.reserve(outer * block);
  for (std::size_t o = 0; o < outer; ++o) {
    const double* src =
        f.values.data() + (o * var_arity + static_cast<std::size_t>(value)) * block;
    out.values.insert(out.values.end(), src, src + block);
  }
  return out;
}

Factor MultiplyAll(const std::vector<const Factor*>& factors,
                   std::vector<int> result_scope,
                   std::vector<int> result_arity) {
  const std::size_t dims = result_scope.size();
  const std::size_t num = factors.size();
  std::size_t cells = 1;
  for (int a : result_arity) cells *= static_cast<std::size_t>(a);
  // Per-factor stride of each result digit (0 when the digit's variable is
  // not in that factor's scope), so input indices advance incrementally
  // with the row-major walk instead of being recomputed per cell.
  std::vector<std::size_t> stride(num * dims, 0);
  for (std::size_t fi = 0; fi < num; ++fi) {
    const Factor& f = *factors[fi];
    for (std::size_t d = 0; d < dims; ++d) {
      const auto it = std::find(f.scope.begin(), f.scope.end(), result_scope[d]);
      if (it == f.scope.end()) continue;
      std::size_t s = 1;
      for (std::size_t i = static_cast<std::size_t>(it - f.scope.begin()) + 1;
           i < f.scope.size(); ++i) {
        s *= static_cast<std::size_t>(f.arity[i]);
      }
      stride[fi * dims + d] = s;
    }
  }
  Factor out;
  out.values.resize(cells);
  std::vector<std::size_t> idx(num, 0);
  std::vector<int> digits(dims, 0);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    double p = 1.0;
    for (std::size_t fi = 0; fi < num; ++fi) p *= factors[fi]->values[idx[fi]];
    out.values[cell] = p;
    for (std::size_t d = dims; d-- > 0;) {
      ++digits[d];
      for (std::size_t fi = 0; fi < num; ++fi) idx[fi] += stride[fi * dims + d];
      if (digits[d] < result_arity[d]) break;
      digits[d] = 0;
      for (std::size_t fi = 0; fi < num; ++fi) {
        idx[fi] -= stride[fi * dims + d] * static_cast<std::size_t>(result_arity[d]);
      }
    }
  }
  out.scope = std::move(result_scope);
  out.arity = std::move(result_arity);
  return out;
}

Factor MarginalizeLast(const Factor& f) {
  Factor out;
  out.scope.assign(f.scope.begin(), f.scope.end() - 1);
  out.arity.assign(f.arity.begin(), f.arity.end() - 1);
  const std::size_t k = static_cast<std::size_t>(f.arity.back());
  const std::size_t rows = f.size() / k;
  out.values.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (std::size_t j = 0; j < k; ++j) sum += f.values[r * k + j];
    out.values[r] = sum;
  }
  return out;
}

}  // namespace pf
