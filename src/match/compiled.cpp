#include "match/compiled.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

namespace resmatch::match {

namespace {

/// Inline (compile-side) and materialization (machine-side) chain caps.
/// Their sum stays below the tree evaluator's depth-64 limit, so no
/// compiled evaluation can ever diverge from the tree on that limit: any
/// chain the caps reject is handled by fallback instead (see compiled.hpp
/// header comment).
constexpr int kMaxInlineDepth = 32;
constexpr int kMaxChainDepth = 32;
constexpr std::size_t kMaxProgram = 8192;

/// Purity + chain-depth analysis of one machine ad's attributes.
///
/// An attribute is MATERIALIZABLE (its standalone value equals its value
/// inside any match) iff its transitive reference closure contains no
/// `other.` refs, no bare refs the machine fails to define (those would
/// Condor-fall-through to the request), and no chain deeper than
/// kMaxChainDepth lookups (cycles included). The walk is conservative:
/// it visits both branches of lazy operators, so an impure-but-dead
/// branch still demotes the attribute — that only costs a fallback row,
/// never correctness.
class PurityScan {
 public:
  explicit PurityScan(const ClassAd& machine) : machine_(&machine) {}

  /// Chain depth in lookups of referencing `name` from outside the ad,
  /// or -1 when the attribute is not materializable.
  int ref_depth(const std::string& name) {
    const auto it = memo_.find(name);
    if (it != memo_.end()) return it->second;
    if (!in_progress_.insert(name).second) return -1;  // reference cycle
    const ExprPtr* found = machine_->find(name);
    int depth = -1;
    if (found) {
      const int inner = walk(**found);
      if (inner >= 0 && inner + 1 <= kMaxChainDepth) depth = inner + 1;
    }
    in_progress_.erase(name);
    memo_.emplace(name, depth);
    return depth;
  }

 private:
  int walk(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kLiteral:
        return 0;
      case ExprKind::kAttrRef: {
        if (expr.scope == Scope::kOther) return -1;  // needs the request
        if (!machine_->has(expr.name)) {
          // my.<missing> is UNDEFINED regardless of the counterpart ad
          // (pure); a bare miss falls through to the request (impure).
          return expr.scope == Scope::kSelf ? 1 : -1;
        }
        return ref_depth(expr.name);
      }
      default: {
        int deepest = 0;
        for (const ExprPtr& child : expr.children) {
          const int d = walk(*child);
          if (d < 0) return -1;
          deepest = std::max(deepest, d);
        }
        return deepest;
      }
    }
  }

  const ClassAd* machine_;
  std::unordered_map<std::string, int> memo_;
  std::unordered_set<std::string> in_progress_;
};

}  // namespace

// --- MachineTable ------------------------------------------------------------

MachineTable MachineTable::build(const std::vector<ClassAd>& machines) {
  MachineTable t;
  t.machines_ = &machines;
  t.rows_ = machines.size();
  t.req_group_of_row_.resize(machines.size(), 0);
  t.group_exprs_.push_back(nullptr);  // group 0: no requirements

  // Pass 1: the column set is the union of every machine's attribute
  // names, so `column_of` is total over anything a program can load.
  for (const ClassAd& m : machines) {
    for (const std::string& name : m.names()) {
      if (t.column_index_.emplace(name, static_cast<int>(t.columns_.size()))
              .second) {
        Column col;
        col.name = name;
        col.cells.resize(machines.size());
        t.columns_.push_back(std::move(col));
      }
    }
  }
  // Late-added columns must still cover every row.
  for (Column& col : t.columns_) col.cells.resize(machines.size());

  // Pass 2: materialize cells + group rows by requirements source.
  std::unordered_map<std::string, std::size_t> group_ids;
  for (std::size_t row = 0; row < machines.size(); ++row) {
    const ClassAd& m = machines[row];
    PurityScan purity(m);
    for (const std::string& name : m.names()) {
      Cell& cell = t.columns_[static_cast<std::size_t>(
                                  t.column_index_.at(name))]
                       .cells[row];
      if (purity.ref_depth(name) < 0) {
        cell.tag = CellTag::kImpure;
        ++t.impure_cells_;
        continue;
      }
      const Value v = m.evaluate(name, /*other=*/nullptr);
      if (v.is_bool()) {
        cell.tag = CellTag::kBool;
        cell.b = v.as_bool();
      } else if (v.is_number()) {
        cell.tag = CellTag::kNum;
        cell.num = v.as_number();
      } else if (v.is_string()) {
        cell.tag = CellTag::kStr;
        t.string_pool_.push_back(v.as_string());
        cell.str = &t.string_pool_.back();
      } else {
        cell.tag = CellTag::kUndef;
      }
    }
    if (const ExprPtr* req = m.find("requirements")) {
      const std::string key = to_string(**req);
      const auto [it, fresh] =
          group_ids.emplace(key, t.group_exprs_.size());
      if (fresh) t.group_exprs_.push_back(*req);
      t.req_group_of_row_[row] = it->second;
    }
  }

  // Pass 3: dense numeric projections for the prefilter. Only kNum
  // cells raise the mask — impure, missing, undef, bool and string cells
  // all read as "not a number" and are never prefilter-rejected.
  for (Column& col : t.columns_) {
    col.nums.assign(t.rows_, 0.0);
    col.is_num.assign(t.rows_, 0);
    for (std::size_t row = 0; row < t.rows_; ++row) {
      if (col.cells[row].tag == CellTag::kNum) {
        col.nums[row] = col.cells[row].num;
        col.is_num[row] = 1;
      }
    }
  }
  return t;
}

// --- CompiledMatcher: compilation --------------------------------------------

CompiledMatcher::CompiledMatcher(const ClassAd& request,
                                 const MachineTable& table)
    : request_(&request), table_(&table) {
  if (const ExprPtr* req = request.find("requirements")) {
    has_req_requirements_ = true;
    req_requirements_.ok =
        compile(**req, /*machine_side=*/false, 0, req_requirements_.code);
    extract_prefilter(**req);
  }
  if (const ExprPtr* rank = request.find("rank")) {
    has_req_rank_ = true;
    req_rank_.ok = compile(**rank, /*machine_side=*/false, 0, req_rank_.code);
  }
  group_requirements_.resize(table.group_count());
  for (std::size_t g = 1; g < table.group_count(); ++g) {
    group_requirements_[g].ok = compile(*table.group_requirements(g),
                                        /*machine_side=*/true, 0,
                                        group_requirements_[g].code);
  }
}

bool CompiledMatcher::fully_compiled() const noexcept {
  if (has_req_requirements_ && !req_requirements_.ok) return false;
  if (has_req_rank_ && !req_rank_.ok) return false;
  for (std::size_t g = 1; g < group_requirements_.size(); ++g) {
    if (!group_requirements_[g].ok) return false;
  }
  return true;
}

std::int32_t CompiledMatcher::add_literal(const Value& value) {
  CVal v;
  if (value.is_bool()) {
    v.tag = CVal::Tag::kBool;
    v.b = value.as_bool();
  } else if (value.is_number()) {
    v.tag = CVal::Tag::kNum;
    v.num = value.as_number();
  } else if (value.is_string()) {
    v.tag = CVal::Tag::kStr;
    literal_pool_.push_back(value.as_string());
    v.str = &literal_pool_.back();
  }
  literals_.push_back(v);
  return static_cast<std::int32_t>(literals_.size() - 1);
}

bool CompiledMatcher::compile(const Expr& expr, bool machine_side, int depth,
                              std::vector<Instr>& code) {
  if (code.size() > kMaxProgram) return false;
  switch (expr.kind) {
    case ExprKind::kLiteral:
      code.push_back({Op::kPushLiteral, add_literal(expr.literal), 0});
      return true;
    case ExprKind::kAttrRef:
      return compile_attr(expr, machine_side, depth, code);
    case ExprKind::kUnary:
      if (!compile(*expr.children[0], machine_side, depth, code)) {
        return false;
      }
      code.push_back(
          {expr.op == TokenKind::kNot ? Op::kNot : Op::kNeg, 0, 0});
      return true;
    case ExprKind::kBinary: {
      if (!compile(*expr.children[0], machine_side, depth, code) ||
          !compile(*expr.children[1], machine_side, depth, code)) {
        return false;
      }
      Op op;
      switch (expr.op) {
        case TokenKind::kAndAnd: op = Op::kAnd; break;
        case TokenKind::kOrOr: op = Op::kOr; break;
        case TokenKind::kEqEq: op = Op::kEq; break;
        case TokenKind::kNotEq: op = Op::kNe; break;
        case TokenKind::kLess: op = Op::kLt; break;
        case TokenKind::kLessEq: op = Op::kLe; break;
        case TokenKind::kGreater: op = Op::kGt; break;
        case TokenKind::kGreaterEq: op = Op::kGe; break;
        case TokenKind::kPlus: op = Op::kAdd; break;
        case TokenKind::kMinus: op = Op::kSub; break;
        case TokenKind::kStar: op = Op::kMul; break;
        case TokenKind::kSlash: op = Op::kDiv; break;
        case TokenKind::kPercent: op = Op::kMod; break;
        default: return false;  // no such binary op today
      }
      code.push_back({op, 0, 0});
      return true;
    }
    case ExprKind::kTernary:
      for (const ExprPtr& child : expr.children) {
        if (!compile(*child, machine_side, depth, code)) return false;
      }
      code.push_back({Op::kTernary, 0, 0});
      return true;
    case ExprKind::kCall: {
      for (const ExprPtr& child : expr.children) {
        if (!compile(*child, machine_side, depth, code)) return false;
      }
      Builtin id = Builtin::kUnknown;
      if (expr.name == "min") id = Builtin::kMin;
      else if (expr.name == "max") id = Builtin::kMax;
      else if (expr.name == "pow") id = Builtin::kPow;
      else if (expr.name == "floor") id = Builtin::kFloor;
      else if (expr.name == "ceil") id = Builtin::kCeil;
      else if (expr.name == "abs") id = Builtin::kAbs;
      else if (expr.name == "isUndefined") id = Builtin::kIsUndefined;
      else if (expr.name == "ifThenElse") id = Builtin::kIfThenElse;
      code.push_back({Op::kCall, static_cast<std::int32_t>(id),
                      static_cast<std::int32_t>(expr.children.size())});
      return true;
    }
  }
  return false;
}

bool CompiledMatcher::compile_attr(const Expr& expr, bool machine_side,
                                   int depth, std::vector<Instr>& code) {
  // Each inlined attribute binding is one tree lookup; cap the static
  // chain so the 64-deep dynamic limit is provably unreachable.
  if (depth >= kMaxInlineDepth) return false;

  // Inline the request's binding of `name` (the tree evaluates it with
  // self=request, other=machine — i.e. request side). Missing attributes
  // are a constant UNDEFINED.
  const auto inline_request = [&](const std::string& name) {
    const ExprPtr* found = request_->find(name);
    if (!found) {
      code.push_back({Op::kPushUndefined, 0, 0});
      return true;
    }
    return compile(**found, /*machine_side=*/false, depth + 1, code);
  };
  // Load the machine's materialized value of `name`; rows that lack the
  // attribute read UNDEFINED. A name no machine defines has no column
  // and is a constant UNDEFINED.
  const auto load_column = [&](const std::string& name) {
    const int col = table_->column_of(name);
    if (col < 0) {
      code.push_back({Op::kPushUndefined, 0, 0});
    } else {
      code.push_back({Op::kLoadColumn, col, 0});
    }
  };

  switch (expr.scope) {
    case Scope::kSelf:
      if (machine_side) {
        load_column(expr.name);
        return true;
      }
      return inline_request(expr.name);
    case Scope::kOther:
      if (machine_side) return inline_request(expr.name);
      load_column(expr.name);
      return true;
    case Scope::kBare:
      if (!machine_side) {
        // Condor order: the request (self) wins when it defines the name;
        // only then does the lookup cross to the machine.
        if (const ExprPtr* found = request_->find(expr.name)) {
          return compile(**found, /*machine_side=*/false, depth + 1, code);
        }
        load_column(expr.name);
        return true;
      }
      // Machine side: whether the machine defines the name varies per
      // row, so the branch is a runtime one — use the cell when the row
      // has the attribute, else fall into the request-side block.
      {
        const int col = table_->column_of(expr.name);
        if (col < 0) return inline_request(expr.name);
        const std::size_t patch = code.size();
        code.push_back({Op::kLoadColumnElse, col, 0});
        if (!inline_request(expr.name)) return false;
        code[patch].b = static_cast<std::int32_t>(code.size() - patch - 1);
        return true;
      }
  }
  return false;
}

// --- CompiledMatcher: prefilter ----------------------------------------------

namespace {

void collect_conjuncts(const Expr& expr, std::vector<const Expr*>& out) {
  if (expr.kind == ExprKind::kBinary && expr.op == TokenKind::kAndAnd) {
    collect_conjuncts(*expr.children[0], out);
    collect_conjuncts(*expr.children[1], out);
    return;
  }
  out.push_back(&expr);
}

bool cmp_satisfies(CompiledMatcher::PrefilterCmp cmp, double v, double lit) {
  using C = CompiledMatcher::PrefilterCmp;
  switch (cmp) {
    case C::kLt: return v < lit;
    case C::kLe: return v <= lit;
    case C::kGt: return v > lit;
    case C::kGe: return v >= lit;
    case C::kEq: return v == lit;
    case C::kNe: return v != lit;
  }
  return true;
}

/// rejected[i] |= is_num[i] && !(vals[i] <cmp> lit), for i in [0, n).
void prefilter_term(CompiledMatcher::PrefilterCmp cmp, double lit,
                    const double* vals, const std::uint8_t* is_num,
                    std::uint8_t* rejected, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    rejected[i] |= static_cast<std::uint8_t>(
        is_num[i] != 0 && !cmp_satisfies(cmp, vals[i], lit));
  }
}

}  // namespace

/// Lowers top-level `&&` conjuncts of the request's requirements into
/// column-scanned `column <cmp> finite-literal` terms.
///
/// Why rejecting on a FALSE term is sound even though other conjuncts
/// may be impure or uncompilable: the scanned cell is a materialized
/// pure number, so the tree evaluates that conjunct to the same FALSE;
/// and under the tri-state `&&` a FALSE operand caps the chain's value
/// at FALSE or UNDEFINED — never TRUE — no matter what every other
/// conjunct evaluates to. Both engines define "matched" as the value
/// being boolean TRUE, so the row cannot match either way.
void CompiledMatcher::extract_prefilter(const Expr& requirements) {
  std::vector<const Expr*> conjuncts;
  collect_conjuncts(requirements, conjuncts);
  for (const Expr* conjunct : conjuncts) {
    // Reuse the full compiler for the lowering; throwaway programs may
    // append extra literals to literals_, which is harmless.
    std::vector<Instr> code;
    if (!compile(*conjunct, /*machine_side=*/false, 0, code)) continue;
    if (code.size() != 3) continue;
    PrefilterCmp cmp;
    switch (code[2].op) {
      case Op::kLt: cmp = PrefilterCmp::kLt; break;
      case Op::kLe: cmp = PrefilterCmp::kLe; break;
      case Op::kGt: cmp = PrefilterCmp::kGt; break;
      case Op::kGe: cmp = PrefilterCmp::kGe; break;
      case Op::kEq: cmp = PrefilterCmp::kEq; break;
      case Op::kNe: cmp = PrefilterCmp::kNe; break;
      default: continue;
    }
    int col = -1;
    std::int32_t literal = -1;
    if (code[0].op == Op::kLoadColumn && code[1].op == Op::kPushLiteral) {
      col = code[0].a;
      literal = code[1].a;
    } else if (code[0].op == Op::kPushLiteral &&
               code[1].op == Op::kLoadColumn) {
      col = code[1].a;
      literal = code[0].a;
      // Literal-on-left: mirror so the column leads (== and != are
      // symmetric already).
      switch (cmp) {
        case PrefilterCmp::kLt: cmp = PrefilterCmp::kGt; break;
        case PrefilterCmp::kLe: cmp = PrefilterCmp::kGe; break;
        case PrefilterCmp::kGt: cmp = PrefilterCmp::kLt; break;
        case PrefilterCmp::kGe: cmp = PrefilterCmp::kLe; break;
        default: break;
      }
    } else {
      continue;
    }
    const CVal& lit = literals_[static_cast<std::size_t>(literal)];
    // Finite numeric literals only: a NaN literal would compare false
    // where the tree yields UNDEFINED — same matched verdict, but not
    // worth reasoning about; infinities are excluded with it.
    if (lit.tag != CVal::Tag::kNum || !std::isfinite(lit.num)) continue;
    prefilter_terms_.push_back(PrefilterTerm{col, cmp, lit.num});
  }
  // Pure capacity query: every conjunct lowered. The scan's verdict is
  // then total for rows whose scanned cells are all numeric — each
  // conjunct evaluates to exactly TRUE or FALSE, so the `&&` chain is
  // TRUE iff every term is satisfied.
  prefilter_complete_ =
      !conjuncts.empty() && prefilter_terms_.size() == conjuncts.size();
}

void CompiledMatcher::apply_prefilter() {
  if (prefilter_terms_.empty()) return;
  const std::size_t n = table_->rows();
  rejected_.assign(n, 0);
  for (const PrefilterTerm& term : prefilter_terms_) {
    const double* vals = table_->numeric_values(term.col);
    const std::uint8_t* mask = table_->numeric_mask(term.col);
    prefilter_term(term.cmp, term.literal, vals, mask, rejected_.data(), n);
  }
  if (!prefilter_complete_) return;
  // accepted = every scanned cell numeric AND no term rejected. (A row
  // with all cells numeric and no definitive FALSE has every conjunct
  // TRUE.)
  accepted_.assign(n, 1);
  for (const PrefilterTerm& term : prefilter_terms_) {
    const std::uint8_t* mask = table_->numeric_mask(term.col);
    for (std::size_t i = 0; i < n; ++i) accepted_[i] &= mask[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    accepted_[i] &= static_cast<std::uint8_t>(rejected_[i] == 0);
  }
}

// --- CompiledMatcher: evaluation ---------------------------------------------

bool CompiledMatcher::run(const Program& program, std::size_t row,
                          CVal& out) {
  using Tag = CVal::Tag;
  stack_.clear();
  arena_.clear();

  const auto undef = [] { return CVal{}; };
  const auto boolean = [](bool b) {
    CVal v;
    v.tag = Tag::kBool;
    v.b = b;
    return v;
  };
  // NaN is a domain error: UNDEFINED, exactly as the tree's numeric().
  const auto number = [&](double n) {
    if (std::isnan(n)) return undef();
    CVal v;
    v.tag = Tag::kNum;
    v.num = n;
    return v;
  };
  const auto cell_value = [&](const MachineTable::Cell& c) {
    CVal v;
    switch (c.tag) {
      case MachineTable::CellTag::kBool:
        v.tag = Tag::kBool;
        v.b = c.b;
        break;
      case MachineTable::CellTag::kNum:
        v.tag = Tag::kNum;
        v.num = c.num;
        break;
      case MachineTable::CellTag::kStr:
        v.tag = Tag::kStr;
        v.str = c.str;
        break;
      default:  // kMissing / kUndef both read as UNDEFINED
        break;
    }
    return v;
  };
  const auto pop = [&] {
    CVal v = stack_.back();
    stack_.pop_back();
    return v;
  };

  const std::vector<Instr>& code = program.code;
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    const Instr& in = code[pc];
    switch (in.op) {
      case Op::kPushLiteral:
        stack_.push_back(literals_[static_cast<std::size_t>(in.a)]);
        break;
      case Op::kPushUndefined:
        stack_.push_back(undef());
        break;
      case Op::kLoadColumn: {
        const MachineTable::Cell& c = table_->cell(in.a, row);
        if (c.tag == MachineTable::CellTag::kImpure) return false;
        stack_.push_back(cell_value(c));
        break;
      }
      case Op::kLoadColumnElse: {
        const MachineTable::Cell& c = table_->cell(in.a, row);
        if (c.tag == MachineTable::CellTag::kImpure) return false;
        if (c.tag != MachineTable::CellTag::kMissing) {
          stack_.push_back(cell_value(c));
          pc += static_cast<std::size_t>(in.b);
        }
        // else: fall into the request-side block of b instructions.
        break;
      }
      case Op::kAnd: {
        const CVal r = pop();
        const CVal l = pop();
        // Exact eager rendering of the tree's lazy table: a bool false
        // dominates either side; true && b == b; UNDEFINED survives
        // unless dominated; a non-bool operand is a type error.
        CVal res = undef();
        if (l.tag == Tag::kBool && !l.b) {
          res = boolean(false);
        } else if (l.tag == Tag::kBool && l.b) {
          if (r.tag == Tag::kBool) res = r;
        } else if (l.tag == Tag::kUndef) {
          if (r.tag == Tag::kBool && !r.b) res = boolean(false);
        }
        stack_.push_back(res);
        break;
      }
      case Op::kOr: {
        const CVal r = pop();
        const CVal l = pop();
        CVal res = undef();
        if (l.tag == Tag::kBool && l.b) {
          res = boolean(true);
        } else if (l.tag == Tag::kBool && !l.b) {
          if (r.tag == Tag::kBool) res = r;
        } else if (l.tag == Tag::kUndef) {
          if (r.tag == Tag::kBool && r.b) res = boolean(true);
        }
        stack_.push_back(res);
        break;
      }
      case Op::kNot: {
        const CVal v = pop();
        stack_.push_back(v.tag == Tag::kBool ? boolean(!v.b) : undef());
        break;
      }
      case Op::kNeg: {
        const CVal v = pop();
        stack_.push_back(v.tag == Tag::kNum ? number(-v.num) : undef());
        break;
      }
      case Op::kEq:
      case Op::kNe: {
        const CVal r = pop();
        const CVal l = pop();
        if (l.tag != r.tag || l.tag == Tag::kUndef) {
          // UNDEFINED operands and cross-type comparisons are both type
          // errors in the tree (UNDEFINED short-circuits first).
          stack_.push_back(undef());
          break;
        }
        bool eq = false;
        switch (l.tag) {
          case Tag::kBool: eq = l.b == r.b; break;
          case Tag::kNum: eq = l.num == r.num; break;
          case Tag::kStr: eq = *l.str == *r.str; break;
          default: break;
        }
        stack_.push_back(boolean(in.op == Op::kEq ? eq : !eq));
        break;
      }
      case Op::kLt:
      case Op::kLe:
      case Op::kGt:
      case Op::kGe: {
        const CVal r = pop();
        const CVal l = pop();
        int cmp = 0;
        if (l.tag == Tag::kNum && r.tag == Tag::kNum) {
          cmp = l.num < r.num ? -1 : (l.num > r.num ? 1 : 0);
        } else if (l.tag == Tag::kStr && r.tag == Tag::kStr) {
          cmp = l.str->compare(*r.str);
        } else {
          stack_.push_back(undef());
          break;
        }
        bool v = false;
        switch (in.op) {
          case Op::kLt: v = cmp < 0; break;
          case Op::kLe: v = cmp <= 0; break;
          case Op::kGt: v = cmp > 0; break;
          default: v = cmp >= 0; break;
        }
        stack_.push_back(boolean(v));
        break;
      }
      case Op::kAdd: {
        const CVal r = pop();
        const CVal l = pop();
        if (l.tag == Tag::kStr && r.tag == Tag::kStr) {
          arena_.push_back(*l.str + *r.str);
          CVal v;
          v.tag = Tag::kStr;
          v.str = &arena_.back();
          stack_.push_back(v);
        } else if (l.tag == Tag::kNum && r.tag == Tag::kNum) {
          stack_.push_back(number(l.num + r.num));
        } else {
          stack_.push_back(undef());
        }
        break;
      }
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kMod: {
        const CVal r = pop();
        const CVal l = pop();
        if (l.tag != Tag::kNum || r.tag != Tag::kNum) {
          stack_.push_back(undef());
          break;
        }
        switch (in.op) {
          case Op::kSub: stack_.push_back(number(l.num - r.num)); break;
          case Op::kMul: stack_.push_back(number(l.num * r.num)); break;
          case Op::kDiv:
            stack_.push_back(r.num == 0.0 ? undef()
                                          : number(l.num / r.num));
            break;
          default:
            stack_.push_back(
                r.num == 0.0 ? undef() : number(std::fmod(l.num, r.num)));
            break;
        }
        break;
      }
      case Op::kTernary: {
        const CVal else_v = pop();
        const CVal then_v = pop();
        const CVal cond = pop();
        // Both branches were (eagerly) evaluated; the language is pure
        // and depth-limit-free here, so picking late is equivalent.
        stack_.push_back(cond.tag == Tag::kBool
                             ? (cond.b ? then_v : else_v)
                             : undef());
        break;
      }
      case Op::kCall: {
        const std::size_t argc = static_cast<std::size_t>(in.b);
        const std::size_t base = stack_.size() - argc;
        const CVal* args = stack_.data() + base;
        CVal res = undef();
        const auto num2 = [&](double (*fn)(double, double)) {
          if (argc == 2 && args[0].tag == Tag::kNum &&
              args[1].tag == Tag::kNum) {
            res = number(fn(args[0].num, args[1].num));
          }
        };
        const auto num1 = [&](double (*fn)(double)) {
          if (argc == 1 && args[0].tag == Tag::kNum) {
            res = number(fn(args[0].num));
          }
        };
        switch (static_cast<Builtin>(in.a)) {
          case Builtin::kMin:
            num2([](double a, double b) { return std::min(a, b); });
            break;
          case Builtin::kMax:
            num2([](double a, double b) { return std::max(a, b); });
            break;
          case Builtin::kPow:
            num2([](double a, double b) { return std::pow(a, b); });
            break;
          case Builtin::kFloor:
            num1([](double a) { return std::floor(a); });
            break;
          case Builtin::kCeil:
            num1([](double a) { return std::ceil(a); });
            break;
          case Builtin::kAbs:
            num1([](double a) { return std::fabs(a); });
            break;
          case Builtin::kIsUndefined:
            if (argc == 1) res = boolean(args[0].tag == Tag::kUndef);
            break;
          case Builtin::kIfThenElse:
            if (argc == 3 && args[0].tag == Tag::kBool) {
              res = args[0].b ? args[1] : args[2];
            }
            break;
          case Builtin::kUnknown:
            break;  // arguments evaluated, value UNDEFINED (tree parity)
        }
        stack_.resize(base);
        stack_.push_back(res);
        break;
      }
    }
  }
  out = stack_.back();
  return true;
}

CompiledMatcher::RowResult CompiledMatcher::fallback_row(std::size_t row) {
  ++stats_.fallback_rows;
  const MatchResult m = match_ads(*request_, table_->machines()[row]);
  RowResult out;
  out.matched = m.matched;
  out.rank = m.rank_a;
  return out;
}

CompiledMatcher::RowResult CompiledMatcher::evaluate_row(
    std::size_t row, bool requirements_decided_true) {
  using Tag = CVal::Tag;
  // Same evaluation order as match_ads: request requirements, then the
  // machine's, then (only if matched) the request's rank.
  bool matched = true;
  if (has_req_requirements_ && !requirements_decided_true) {
    if (!req_requirements_.ok) return fallback_row(row);
    CVal v;
    if (!run(req_requirements_, row, v)) return fallback_row(row);
    matched = v.tag == Tag::kBool && v.b;
  }
  if (matched) {
    const std::size_t group = table_->group_of(row);
    if (group != 0) {
      const Program& p = group_requirements_[group];
      if (!p.ok) return fallback_row(row);
      CVal v;
      if (!run(p, row, v)) return fallback_row(row);
      matched = v.tag == Tag::kBool && v.b;
    }
  }
  RowResult out;
  out.matched = matched;
  if (matched && has_req_rank_) {
    if (!req_rank_.ok) return fallback_row(row);
    CVal v;
    if (!run(req_rank_, row, v)) return fallback_row(row);
    out.rank = v.tag == Tag::kNum ? v.num : 0.0;
  }
  ++stats_.compiled_rows;
  return out;
}

std::vector<std::size_t> CompiledMatcher::rank_all() {
  apply_prefilter();
  const bool prefiltered = !prefilter_terms_.empty();
  const bool decisive = prefiltered && prefilter_complete_;
  std::vector<std::pair<double, std::size_t>> ranked;
  for (std::size_t row = 0; row < table_->rows(); ++row) {
    if (prefiltered && rejected_[row] != 0) {
      ++stats_.prefiltered_rows;
      continue;
    }
    const RowResult r = evaluate_row(row, decisive && accepted_[row] != 0);
    if (r.matched) ranked.emplace_back(r.rank, row);
  }
  // Identical ordering contract to rank_matches: descending rank, stable
  // on ties (row order).
  std::stable_sort(
      ranked.begin(), ranked.end(),
      [](const auto& x, const auto& y) { return x.first > y.first; });
  std::vector<std::size_t> out;
  out.reserve(ranked.size());
  for (const auto& [rank, row] : ranked) {
    (void)rank;
    out.push_back(row);
  }
  return out;
}

std::vector<std::size_t> rank_matches_compiled(
    const ClassAd& request, const MachineTable& table,
    CompiledMatcher::Stats* stats) {
  CompiledMatcher matcher(request, table);
  std::vector<std::size_t> out = matcher.rank_all();
  if (stats) *stats = matcher.stats();
  return out;
}

}  // namespace resmatch::match
