#pragma once
// Cube covers: a list of cubes denoting a sum-of-products.

#include <string>
#include <vector>

#include "cubes/cube.hpp"
#include "tt/truth_table.hpp"

namespace l2l::cubes {

class Cover {
 public:
  Cover() = default;

  /// Empty cover (constant 0) over `num_vars` variables.
  explicit Cover(int num_vars) : num_vars_(num_vars) {}

  /// Cover made of the given cubes (all must share the arity).
  Cover(int num_vars, std::vector<Cube> cubes);

  /// Parse one cube string per line ('0','1','-'); blank lines skipped.
  static Cover parse(int num_vars, const std::string& text);

  /// The constant-1 cover (a single universal cube).
  static Cover universal(int num_vars);

  /// Exact cover of a truth table: one cube per minterm (canonical SOP).
  static Cover from_truth_table(const tt::TruthTable& f);

  int num_vars() const { return num_vars_; }
  int size() const { return static_cast<int>(cubes_.size()); }
  bool empty() const { return cubes_.empty(); }

  const std::vector<Cube>& cubes() const { return cubes_; }
  const Cube& cube(int i) const { return cubes_[static_cast<std::size_t>(i)]; }

  /// Append a cube; cubes that are already empty are silently dropped.
  void add(Cube c);

  /// Pre-size the cube list (building paths know their upper bounds).
  void reserve(int n) { cubes_.reserve(static_cast<std::size_t>(n)); }

  /// Total literal count across all cubes -- the classic 2-level cost.
  int num_literals() const;

  /// OR of two covers: concatenation.
  Cover operator|(const Cover& o) const;

  /// AND of two covers: pairwise cube intersection, empties dropped.
  Cover operator&(const Cover& o) const;

  /// Cofactor of the whole cover with respect to literal (var, phase).
  Cover cofactor(int var, bool phase) const;

  /// Drop cubes single-cube-contained in another cube of the cover, and
  /// duplicate cubes. (Not a full irredundancy pass -- see espresso.)
  void remove_contained_cubes();

  /// Evaluate on a minterm.
  bool eval(std::uint64_t minterm) const;

  /// Expand to an explicit truth table (num_vars must be small).
  tt::TruthTable to_truth_table() const;

  /// One cube string per line.
  std::string to_string() const;

  /// Canonical form: sorted, deduplicated (for comparisons in tests).
  Cover sorted() const;

 private:
  int num_vars_ = 0;
  std::vector<Cube> cubes_;
};

}  // namespace l2l::cubes
