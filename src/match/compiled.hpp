// Compiled ClassAd matching: flat predicate bytecode over SoA machine-ad
// columns.
//
// rank_matches() tree-walks every candidate's AST per request — pointer
// chasing, shared_ptr children and std::map attribute lookups on the
// hottest path the matchmaker has. This module trades that for a
// one-time compile per (request, machine table):
//
//   MachineTable     turns a fixed set of machine ads into struct-of-
//                    arrays columns (one per attribute name) of
//                    pre-materialized values, plus a grouping of rows by
//                    distinct `requirements` source.
//   CompiledMatcher  compiles the request's requirements/rank and each
//                    machine group's requirements into a flat postfix
//                    bytecode; evaluation per row is a tight loop over a
//                    value stack with column loads instead of attribute
//                    lookups.
//
// The tree-walking evaluator stays the correctness anchor: any construct
// the compiler cannot prove equivalent falls back to match_ads() — per
// row when only a cell is unprovable, wholesale when a program is.
// rank_matches_compiled() is a drop-in for rank_matches() and returns
// bit-identical orderings (the differential fuzz in compiled_test pins
// this).
//
// What makes naive compilation WRONG, and how each hazard is handled:
//
//   * Machine attribute values can depend on the request (`other.` refs,
//     or bare refs the machine does not define, which Condor-lookup fall
//     through to the request). Such cells cannot be materialized ahead of
//     the match; they are tagged kImpure and any program load of one
//     aborts to the per-row tree fallback. The purity analysis is a
//     transitive closure over the machine ad's reference graph.
//   * The tree evaluator bounds attribute-chain recursion at depth 64,
//     yielding UNDEFINED past it. Inlining changes where that bound would
//     bite, so the compiler refuses programs with inline chains past 32
//     and the purity analysis refuses machine chains past 32: any
//     compiled evaluation therefore performs at most 64 chained lookups
//     and can never diverge from the tree on the depth limit. Reference
//     cycles blow past the caps and fall back the same way.
//   * `&&`/`||`/`?:` are lazy in the tree evaluator; the bytecode is
//     eager. The expression language is pure (no side effects) and no
//     compiled program can hit the depth limit (previous point), so
//     eager evaluation with the exact tri-state truth tables is
//     observationally identical.
//
// On top of the bytecode, rank_all() runs a prefilter: top-level `&&`
// conjuncts of the request's requirements with the shape
// `column <cmp> finite-number` are scanned column by column over dense
// numeric column projections, and any row where such a conjunct is
// definitively FALSE is rejected without per-row evaluation. This is
// sound even for rows whose OTHER cells are impure: a materialized
// numeric cell evaluates identically inside the tree, and
// under the tri-state `&&` a FALSE conjunct caps the whole requirements
// at FALSE-or-UNDEFINED — never TRUE — regardless of the remaining
// conjuncts. Rows whose cell for the scanned column is anything but a
// pure number are left for full evaluation. When EVERY conjunct lowers
// to a term (the pure capacity query — the paper's common case), the
// scan also decides acceptance: a row whose scanned cells are all
// numeric and all satisfied has requirements == TRUE by construction,
// and skips per-row requirements evaluation entirely.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "match/classad.hpp"

namespace resmatch::match {

/// Struct-of-arrays view over a fixed vector of machine ads. One column
/// per attribute name occurring in any machine; each cell is the attr's
/// standalone-materialized value or a tag explaining why it has none.
/// Borrows `machines` (for row fallback) — it must outlive the table.
class MachineTable {
 public:
  enum class CellTag : std::uint8_t {
    kMissing,  ///< machine does not define the attribute
    kUndef,    ///< defined; evaluates to UNDEFINED
    kBool,
    kNum,
    kStr,
    kImpure,  ///< defined, but the value depends on the request (or the
              ///< reference chain is too deep to prove) — row fallback
  };
  struct Cell {
    CellTag tag = CellTag::kMissing;
    bool b = false;
    double num = 0.0;
    const std::string* str = nullptr;  ///< interned in the table's pool
  };

  [[nodiscard]] static MachineTable build(
      const std::vector<ClassAd>& machines);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] const std::vector<ClassAd>& machines() const noexcept {
    return *machines_;
  }
  /// Column index of an attribute name; -1 when no machine defines it.
  [[nodiscard]] int column_of(const std::string& name) const {
    const auto it = column_index_.find(name);
    return it == column_index_.end() ? -1 : it->second;
  }
  [[nodiscard]] const Cell& cell(int col, std::size_t row) const {
    return columns_[static_cast<std::size_t>(col)].cells[row];
  }

  /// Dense numeric projection of a column for the prefilter's scans:
  /// numeric_values(col)[row] holds the cell's number exactly where
  /// numeric_mask(col)[row] is 1 (the cell is CellTag::kNum); every
  /// other row reads 0.0 / 0. Both arrays span rows().
  [[nodiscard]] const double* numeric_values(int col) const {
    return columns_[static_cast<std::size_t>(col)].nums.data();
  }
  [[nodiscard]] const std::uint8_t* numeric_mask(int col) const {
    return columns_[static_cast<std::size_t>(col)].is_num.data();
  }

  /// Rows are grouped by distinct `requirements` source text; group 0 is
  /// "no requirements" (always accepts). One program per group serves
  /// every row of the group — per-machine variation lives in the columns.
  [[nodiscard]] std::size_t group_of(std::size_t row) const {
    return req_group_of_row_[row];
  }
  [[nodiscard]] std::size_t group_count() const noexcept {
    return group_exprs_.size();
  }
  /// The group's requirements expression (null for group 0).
  [[nodiscard]] const ExprPtr& group_requirements(std::size_t group) const {
    return group_exprs_[group];
  }

  /// Cells tagged kImpure across all columns (0 = every machine attribute
  /// materialized; any compiled program then never row-falls-back on a
  /// column load).
  [[nodiscard]] std::uint64_t impure_cells() const noexcept {
    return impure_cells_;
  }

 private:
  struct Column {
    std::string name;
    std::vector<Cell> cells;
    /// Dense SoA projection for the prefilter (see numeric_values).
    std::vector<double> nums;
    std::vector<std::uint8_t> is_num;
  };

  const std::vector<ClassAd>* machines_ = nullptr;
  std::size_t rows_ = 0;
  std::vector<Column> columns_;
  std::unordered_map<std::string, int> column_index_;
  std::vector<std::size_t> req_group_of_row_;
  std::vector<ExprPtr> group_exprs_;
  std::uint64_t impure_cells_ = 0;
  /// Stable-address storage for string cells (deque: growth never moves
  /// existing elements, so Cell::str pointers stay valid).
  std::deque<std::string> string_pool_;
};

/// One request compiled against one machine table. Not thread-safe (the
/// evaluation scratch is shared across calls); compile one per thread.
class CompiledMatcher {
 public:
  /// Compiles request.requirements, request.rank and every machine
  /// group's requirements. Both arguments are borrowed and must outlive
  /// the matcher. A program that cannot be compiled is simply marked; its
  /// rows evaluate through match_ads() instead.
  CompiledMatcher(const ClassAd& request, const MachineTable& table);

  struct RowResult {
    bool matched = false;
    double rank = 0.0;  ///< the request's rank of the row (0 if absent /
                        ///< non-numeric), as rank_matches uses it
  };
  /// Indices of matching rows, by descending request-rank, ties in row
  /// order — exactly rank_matches(request, table.machines()).
  [[nodiscard]] std::vector<std::size_t> rank_all();

  /// Normalized comparison of one prefilter term: `column <cmp> literal`
  /// (literal-on-left conjuncts are mirrored at extraction).
  enum class PrefilterCmp : std::uint8_t { kLt, kLe, kGt, kGe, kEq, kNe };

  /// Requirements conjuncts lowered to prefilter terms (0 = every row
  /// goes through full evaluation).
  [[nodiscard]] std::size_t prefilter_term_count() const noexcept {
    return prefilter_terms_.size();
  }

  struct Stats {
    std::uint64_t compiled_rows = 0;  ///< rows served by bytecode alone
    std::uint64_t fallback_rows = 0;  ///< rows served by the tree walker
    /// Rows rejected by the numeric prefilter before any per-row
    /// evaluation (counted in neither of the other two).
    std::uint64_t prefiltered_rows = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// True when every program (request requirements/rank + all machine
  /// groups) compiled; rows can then only fall back on impure cells.
  [[nodiscard]] bool fully_compiled() const noexcept;

 private:
  enum class Op : std::uint8_t {
    kPushLiteral,     ///< a = literal index
    kPushUndefined,
    kLoadColumn,      ///< a = column; kMissing reads as UNDEFINED
    kLoadColumnElse,  ///< a = column, b = skip: when the row HAS the
                      ///< attribute push its cell and jump over the next b
                      ///< instructions; otherwise fall into them (the
                      ///< request-side binding of a machine bare ref)
    kAnd,             ///< tri-state, exact truth table of the tree's &&
    kOr,
    kNot,
    kNeg,
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kAdd,  ///< numbers add, strings concatenate
    kSub,
    kMul,
    kDiv,
    kMod,
    kTernary,  ///< pops else/then/cond
    kCall,     ///< a = builtin id, b = argc
  };
  enum class Builtin : std::int32_t {
    kMin,
    kMax,
    kPow,
    kFloor,
    kCeil,
    kAbs,
    kIsUndefined,
    kIfThenElse,
    kUnknown,  ///< evaluates its arguments, yields UNDEFINED (tree parity)
  };
  struct Instr {
    Op op;
    std::int32_t a = 0;
    std::int32_t b = 0;
  };
  struct CVal {
    enum class Tag : std::uint8_t { kUndef, kBool, kNum, kStr };
    Tag tag = Tag::kUndef;
    bool b = false;
    double num = 0.0;
    const std::string* str = nullptr;
  };
  struct Program {
    std::vector<Instr> code;
    bool ok = false;
  };
  /// One numeric conjunct of the request's requirements, normalized to
  /// `column <cmp> literal` with a finite literal.
  struct PrefilterTerm {
    int col = -1;
    PrefilterCmp cmp = PrefilterCmp::kLt;
    double literal = 0.0;
  };

  [[nodiscard]] bool compile(const Expr& expr, bool machine_side, int depth,
                             std::vector<Instr>& code);
  [[nodiscard]] bool compile_attr(const Expr& expr, bool machine_side,
                                  int depth, std::vector<Instr>& code);
  [[nodiscard]] std::int32_t add_literal(const Value& value);
  /// Evaluate `program` against `row`. Returns false when the evaluation
  /// touched an impure cell (caller must tree-fall-back the row).
  [[nodiscard]] bool run(const Program& program, std::size_t row,
                         CVal& out);
  [[nodiscard]] RowResult fallback_row(std::size_t row);
  /// One row's verdict, with the request-requirements verdict optionally
  /// already decided TRUE by the prefilter's accept scan.
  [[nodiscard]] RowResult evaluate_row(std::size_t row,
                                       bool requirements_decided_true);
  void extract_prefilter(const Expr& requirements);
  void apply_prefilter();

  const ClassAd* request_;
  const MachineTable* table_;
  Program req_requirements_;
  Program req_rank_;
  bool has_req_requirements_ = false;
  bool has_req_rank_ = false;
  std::vector<Program> group_requirements_;  ///< [0] unused (no reqs)
  std::vector<CVal> literals_;
  std::deque<std::string> literal_pool_;
  std::vector<PrefilterTerm> prefilter_terms_;
  /// Every requirements conjunct lowered to a term: the scan can then
  /// ACCEPT rows (all cells numeric, all terms satisfied => TRUE), not
  /// just reject them.
  bool prefilter_complete_ = false;
  std::vector<std::uint8_t> rejected_;  ///< rank_all scratch: 1 = skip row
  std::vector<std::uint8_t> accepted_;  ///< 1 = requirements decided TRUE
  // Evaluation scratch, reused across rows.
  std::vector<CVal> stack_;
  std::deque<std::string> arena_;  ///< concat results live per evaluation
  Stats stats_;
};

/// Drop-in replacement for rank_matches(request, table.machines()):
/// same indices, same order, bit-identical ranks. `stats` (optional)
/// receives the compiled/fallback row split.
[[nodiscard]] std::vector<std::size_t> rank_matches_compiled(
    const ClassAd& request, const MachineTable& table,
    CompiledMatcher::Stats* stats = nullptr);

}  // namespace resmatch::match
