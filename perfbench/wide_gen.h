// Seeded generator of wide er2rel-style mapping scenarios, written as the
// seven artifact texts of docs/FORMATS.md.
//
// A scenario is a set of modules, each holding three motifs whose
// intended connection — and so whose ground-truth tgd — is known by
// construction:
//   compose  two many-to-many relationships (link tables) composed into a
//            direct many-to-many relationship on the target (Example 1.1);
//   chain    a functional path stored as foreign keys on the source and as
//            one denormalized table on the target (Example 3.1, Case A.1);
//   isa      an ISA hierarchy stored as leaf tables on the source and as
//            one table on the target (Example 1.2).
// Padding concepts hang off the motif classes through functional
// relationships (one table each), and one padding class per module links
// to a shared hub class, so each side is one connected CM graph without
// adding any path between two classes of the same module.
//
// Correspondence sets combine 1..max_tables_per_set motifs of distinct
// modules; each motif contributes one target table and one ground-truth
// tgd. The seed picks names, declaration order and the modules of each
// set's motifs; the shape (table, class and set counts, padding, and the
// motif kinds of every set) depends only on WideShape.
#ifndef SEMAP_PERFBENCH_WIDE_GEN_H_
#define SEMAP_PERFBENCH_WIDE_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "validate/scenario_loader.h"

namespace perfbench {

struct WideShape {
  /// Modules; each holds one compose, one chain and one isa motif.
  int modules = 12;
  /// Padding classes (one table each) per module, per side.
  int source_padding = 7;
  int target_padding = 12;
  /// Correspondence sets; set j touches 1 + j % max_tables_per_set
  /// target tables.
  int sets = 48;
  int max_tables_per_set = 4;
};

/// \brief One correspondence set and its ground truth: one tgd per
/// target table it touches.
struct WideSet {
  std::string name;
  std::string correspondences;
  std::vector<std::string> target_tables;
  std::vector<std::string> truth;  // logic::ParseTgd syntax
};

struct WideScenario {
  /// Six schema-side texts; the correspondences slot is left empty (each
  /// WideSet carries its own).
  semap::validate::ScenarioTexts texts;
  std::vector<WideSet> sets;
  size_t source_tables = 0;
  size_t target_tables = 0;
};

WideScenario GenerateWide(const WideShape& shape, uint64_t seed);

/// The texts of `scenario` with set `set` as its correspondences.
semap::validate::ScenarioTexts WithSet(const WideScenario& scenario,
                                       size_t set);

/// FNV-1a digest over every generated text, in a fixed order.
uint64_t Digest(const WideScenario& scenario);

}  // namespace perfbench

#endif  // SEMAP_PERFBENCH_WIDE_GEN_H_
