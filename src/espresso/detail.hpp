#pragma once
// Test seam for espresso's two oracles. Not a user option: every public
// entry point in minimize.hpp runs with Oracle::kAuto.
//
// EXPAND, IRREDUNDANT and REDUCE each ask the function one question (does
// this cube meet the OFF-set? is this cube covered by DC plus the other
// cubes? what is the supercube of this cube's exclusive minterms?). The
// answers depend only on the Boolean function, so two oracles give them:
//
//   kBitset  word-parallel minterm bitsets (2^n bits per set);
//   kUrp     the unate recursive paradigm on cube covers
//            (cover_contains_cube, complement, sharp).
//
// kAuto picks kBitset when num_vars <= bitset_max_vars(), kUrp otherwise.
// Both must give cube-for-cube identical covers (differential_test).

#include "espresso/minimize.hpp"

namespace l2l::espresso::detail {

enum class Oracle { kAuto, kBitset, kUrp };

/// Widest function kAuto answers from bitsets.
int bitset_max_vars();

/// Widest function kBitset accepts when forced; wider throws
/// std::invalid_argument.
int bitset_forced_max_vars();

cubes::Cover expand(const cubes::Cover& f, const cubes::Cover& offset,
                    Oracle oracle);
cubes::Cover irredundant(const cubes::Cover& f, const cubes::Cover& dc,
                         Oracle oracle);
cubes::Cover reduce(const cubes::Cover& f, const cubes::Cover& dc,
                    Oracle oracle);
cubes::Cover minimize(const cubes::Cover& f, const cubes::Cover& dc,
                      const MinimizeOptions& options, MinimizeStats* stats,
                      Oracle oracle);

}  // namespace l2l::espresso::detail
