// Luby's randomized MIS [Lub86] as a CONGEST node program.
//
// This is the black-box MIS the paper plugs into Algorithm 2 for its
// CONGEST bound (O(MIS(G) log W) with MIS(G) = O(log n) w.h.p.).
//
// Protocol (3 rounds per iteration):
//   phase 0  process removals announced last iteration; broadcast a fresh
//            random value to surviving neighbors
//   phase 1  a node whose (value, id) is a strict local maximum joins the
//            IS, announces kJoin, halts with kOutInIs
//   phase 2  nodes that heard kJoin announce kRemoved and halt with
//            kOutNotInIs
#pragma once

#include "mis/mis.hpp"
#include "sim/network.hpp"

namespace distapx {

/// Factory for the per-node Luby program on an n-node network.
sim::ProgramFactory make_luby_program(const Graph& g);

/// Convenience runner: Luby MIS on g under `opts`.
IsResult run_luby_mis(const Graph& g, const sim::RunOptions& opts);

}  // namespace distapx
