#include "match/parser.hpp"

#include <utility>

#include "util/strings.hpp"

namespace resmatch::match {

ExprPtr Expr::make_literal(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::make_attr(std::string attr_name, Scope attr_scope) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kAttrRef;
  e->name = std::move(attr_name);
  e->scope = attr_scope;
  return e;
}

ExprPtr Expr::make_unary(TokenKind op, ExprPtr operand) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kUnary;
  e->op = op;
  e->children = {std::move(operand)};
  return e;
}

ExprPtr Expr::make_binary(TokenKind op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBinary;
  e->op = op;
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::make_ternary(ExprPtr cond, ExprPtr then_e, ExprPtr else_e) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kTernary;
  e->children = {std::move(cond), std::move(then_e), std::move(else_e)};
  return e;
}

ExprPtr Expr::make_call(std::string fn, std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kCall;
  e->name = std::move(fn);
  e->children = std::move(args);
  return e;
}

namespace {

const char* op_text(TokenKind op) {
  switch (op) {
    case TokenKind::kPlus: return "+";
    case TokenKind::kMinus: return "-";
    case TokenKind::kStar: return "*";
    case TokenKind::kSlash: return "/";
    case TokenKind::kPercent: return "%";
    case TokenKind::kLess: return "<";
    case TokenKind::kLessEq: return "<=";
    case TokenKind::kGreater: return ">";
    case TokenKind::kGreaterEq: return ">=";
    case TokenKind::kEqEq: return "==";
    case TokenKind::kNotEq: return "!=";
    case TokenKind::kAndAnd: return "&&";
    case TokenKind::kOrOr: return "||";
    case TokenKind::kNot: return "!";
    default: return "?";
  }
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  util::Expected<ExprPtr> run() {
    auto expr = ternary();
    if (!expr) return expr;
    if (peek().kind != TokenKind::kEnd) {
      return fail("unexpected trailing input");
    }
    return expr;
  }

 private:
  using Result = util::Expected<ExprPtr>;

  const Token& peek() const { return tokens_[pos_]; }
  Token take() { return tokens_[pos_++]; }
  bool accept(TokenKind kind) {
    if (peek().kind != kind) return false;
    ++pos_;
    return true;
  }
  Result fail(const std::string& what) const {
    return Result::failure(util::format("parse error at offset %zu: %s (got %s)",
                                        peek().offset, what.c_str(),
                                        token_kind_name(peek().kind)));
  }

  Result ternary() {
    auto cond = parse_or();
    if (!cond) return cond;
    if (!accept(TokenKind::kQuestion)) return cond;
    auto then_e = ternary();
    if (!then_e) return then_e;
    if (!accept(TokenKind::kColon)) return fail("expected ':'");
    auto else_e = ternary();
    if (!else_e) return else_e;
    return Result(Expr::make_ternary(std::move(cond).value(),
                                     std::move(then_e).value(),
                                     std::move(else_e).value()));
  }

  Result parse_or() { return binary_chain(&Parser::parse_and, {TokenKind::kOrOr}); }
  Result parse_and() {
    return binary_chain(&Parser::equality, {TokenKind::kAndAnd});
  }
  Result equality() {
    return binary_chain(&Parser::relational,
                        {TokenKind::kEqEq, TokenKind::kNotEq});
  }
  Result relational() {
    return binary_chain(&Parser::additive,
                        {TokenKind::kLess, TokenKind::kLessEq,
                         TokenKind::kGreater, TokenKind::kGreaterEq});
  }
  Result additive() {
    return binary_chain(&Parser::multiplicative,
                        {TokenKind::kPlus, TokenKind::kMinus});
  }
  Result multiplicative() {
    return binary_chain(&Parser::unary, {TokenKind::kStar, TokenKind::kSlash,
                                         TokenKind::kPercent});
  }

  Result binary_chain(Result (Parser::*next)(),
                      std::initializer_list<TokenKind> ops) {
    auto lhs = (this->*next)();
    if (!lhs) return lhs;
    ExprPtr acc = std::move(lhs).value();
    for (;;) {
      bool matched = false;
      for (TokenKind op : ops) {
        if (peek().kind == op) {
          take();
          auto rhs = (this->*next)();
          if (!rhs) return rhs;
          acc = Expr::make_binary(op, std::move(acc), std::move(rhs).value());
          matched = true;
          break;
        }
      }
      if (!matched) return Result(std::move(acc));
    }
  }

  Result unary() {
    if (peek().kind == TokenKind::kNot || peek().kind == TokenKind::kMinus) {
      const TokenKind op = take().kind;
      auto operand = unary();
      if (!operand) return operand;
      return Result(Expr::make_unary(op, std::move(operand).value()));
    }
    return primary();
  }

  Result primary() {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::kNumber: {
        const double v = take().number;
        return Result(Expr::make_literal(Value(v)));
      }
      case TokenKind::kString:
        return Result(Expr::make_literal(Value(take().text)));
      case TokenKind::kLParen: {
        take();
        auto inner = ternary();
        if (!inner) return inner;
        if (!accept(TokenKind::kRParen)) return fail("expected ')'");
        return inner;
      }
      case TokenKind::kIdentifier:
        return identifier();
      default:
        return fail("expected expression");
    }
  }

  Result identifier() {
    const Token tok = take();
    const std::string& name = tok.text;
    if (name == "true") return Result(Expr::make_literal(Value(true)));
    if (name == "false") return Result(Expr::make_literal(Value(false)));
    if (name == "undefined") {
      return Result(Expr::make_literal(Value(Undefined{})));
    }
    // Scoped reference: my.attr / other.attr / target.attr.
    if (peek().kind == TokenKind::kDot &&
        (name == "my" || name == "other" || name == "target")) {
      take();  // '.'
      if (peek().kind != TokenKind::kIdentifier) {
        return fail("expected attribute name after '.'");
      }
      const Scope scope = name == "my" ? Scope::kSelf : Scope::kOther;
      return Result(Expr::make_attr(take().text, scope));
    }
    // Builtin call.
    if (peek().kind == TokenKind::kLParen) {
      take();
      std::vector<ExprPtr> args;
      if (peek().kind != TokenKind::kRParen) {
        for (;;) {
          auto arg = ternary();
          if (!arg) return arg;
          args.push_back(std::move(arg).value());
          if (!accept(TokenKind::kComma)) break;
        }
      }
      if (!accept(TokenKind::kRParen)) return fail("expected ')'");
      return Result(Expr::make_call(name, std::move(args)));
    }
    return Result(Expr::make_attr(name, Scope::kBare));
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

util::Expected<ExprPtr> parse_expression(std::string_view source) {
  auto tokens = tokenize(source);
  if (!tokens) return util::Expected<ExprPtr>::failure(tokens.error());
  return Parser(std::move(tokens).value()).run();
}

std::string to_string(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal.to_string();
    case ExprKind::kAttrRef:
      switch (expr.scope) {
        case Scope::kBare: return expr.name;
        case Scope::kSelf: return "my." + expr.name;
        case Scope::kOther: return "other." + expr.name;
      }
      return expr.name;
    case ExprKind::kUnary:
      return std::string(op_text(expr.op)) + "(" +
             to_string(*expr.children[0]) + ")";
    // Appended to a named string: GCC 12 reports a false -Wrestrict on
    // `"(" + std::string&&`.
    case ExprKind::kBinary: {
      std::string out = "(";
      out += to_string(*expr.children[0]);
      out += ' ';
      out += op_text(expr.op);
      out += ' ';
      out += to_string(*expr.children[1]);
      out += ')';
      return out;
    }
    case ExprKind::kTernary: {
      std::string out = "(";
      out += to_string(*expr.children[0]);
      out += " ? ";
      out += to_string(*expr.children[1]);
      out += " : ";
      out += to_string(*expr.children[2]);
      out += ')';
      return out;
    }
    case ExprKind::kCall: {
      std::string out = expr.name + "(";
      for (std::size_t i = 0; i < expr.children.size(); ++i) {
        if (i) out += ", ";
        out += to_string(*expr.children[i]);
      }
      return out + ")";
    }
  }
  return "?";
}

}  // namespace resmatch::match
