#ifndef CRAYFISH_TOOLS_LINT_IR_H_
#define CRAYFISH_TOOLS_LINT_IR_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crayfish_lint/lexer.h"

namespace crayfish::lint {

/// One `#include` directive as the include-graph rules see it.
struct Include {
  std::string target;      ///< header path between the delimiters
  bool is_system = false;  ///< `<...>` form (never part of the project graph)
  int line = 0;
};

/// A name the flow analysis tracks: a function parameter or a local
/// declaration. Members and globals are deliberately not tracked by R8 — the
/// analyzer has no aliasing model for them, so flagging them would be noise.
struct VarDecl {
  std::string name;
  int line = 0;
  bool is_param = false;
  bool is_static = false;  ///< function-local static (R12 input)
  bool is_const = false;   ///< const/constexpr anywhere in the decl-specifiers
};

enum class StmtKind {
  kExpr,    ///< expression / declaration statement (no nested flow)
  kIf,      ///< branches: [then] or [then, else]
  kLoop,    ///< for / while / do; branches: [body]
  kSwitch,  ///< branches: [body], analyzed conservatively (may not run)
  kTry,     ///< branches: [try-block, handler...]
  kBlock,   ///< bare `{ ... }`; branches: [body]
  kReturn,  ///< return / throw: events evaluated, then flow leaves the list
};

/// One statement in a function body, with the expression-level effects the
/// rules need pre-extracted. `uses` are reads of tracked names, `moves` are
/// `std::move(name)` sites (at most one per name per statement — nested
/// lambdas re-moving their own capture must not look like a double move),
/// `resets` are events that make a moved-from name safe again (assignment,
/// `.clear()` / `.reset(...)`, address-of as an out-parameter).
struct Stmt {
  StmtKind kind = StmtKind::kExpr;
  int line = 0;
  std::vector<std::pair<std::string, int>> uses;
  std::vector<std::pair<std::string, int>> moves;
  std::vector<std::pair<std::string, int>> resets;
  std::vector<VarDecl> decls;
  std::vector<std::vector<Stmt>> branches;
};

/// A parsed function (or constructor / TEST body / scheduled-callback lambda)
/// definition. `class_name` comes from a `Class::Method` qualification or the
/// enclosing class body and names the function in findings. Lambdas passed
/// to `Schedule(...)`/`ScheduleAt(...)` become their own synthetic Function
/// (`Host::cbN`), so R8 and R12 analyze event callbacks as functions.
struct Function {
  std::string name;
  int line = 0;
  std::vector<VarDecl> params;
  std::vector<Stmt> body;
  std::string class_name;  ///< enclosing/qualifying class ("" for free fns)
};

/// A call whose result is discarded as a full expression statement
/// (`foo(...);` / `obj.Method(...);`). `callee` is the last identifier of
/// the qualified/member chain, which is what the symbol table resolves.
struct DiscardedCall {
  std::string callee;
  int line = 0;
};

/// A member or variable declared as `std::shared_ptr<const T>`: an immutable
/// shared buffer in Crayfish's ownership model (R9).
struct ImmutableSharedDecl {
  std::string name;
  int line = 0;
};

/// The line span of a class/struct body; inline method definitions take
/// the innermost enclosing class as their `class_name`.
struct ClassDecl {
  std::string name;
  int body_begin_line = 0;  ///< line of the class body `{`
  int body_end_line = 0;    ///< line of the class body `}`
};

/// A namespace-scope variable (or extern declaration) — R12's subject.
struct GlobalDecl {
  std::string name;
  int line = 0;
  bool is_const = false;       ///< const/constexpr/enum — immutable, not flagged
  bool is_extern_decl = false; ///< pure `extern` declaration (no storage here)
};

/// `// lint: <keyword> <justification>` extracted from comments *and* from
/// trailing comments folded into preprocessor tokens (so an `#include` line
/// can carry its own suppression).
struct Suppression {
  std::string keyword;
  std::string justification;
  int line = 0;        ///< line the comment is on
  int applies_to = 0;  ///< line of code it suppresses
};

/// The per-file intermediate representation every rule runs over. No full
/// C++ semantics — just decls, calls, moves, member accesses and
/// control-flow skeletons, which is what the Crayfish rules need.
struct FileIR {
  std::string path;
  std::vector<Token> tokens;
  std::vector<Include> includes;
  std::vector<Function> functions;
  std::vector<DiscardedCall> discarded_calls;
  std::vector<ImmutableSharedDecl> immutable_decls;
  std::vector<Suppression> suppressions;
  std::vector<ClassDecl> classes;
  std::vector<GlobalDecl> globals;
};

/// Function names whose return type is known from declarations. Built over
/// every file first so R4 can resolve calls across translation units; a
/// name declared with both a Status and a non-Status return anywhere is
/// treated as ambiguous and never flagged.
struct SymbolTable {
  std::set<std::string> status_returning;
  std::set<std::string> other_returning;

  bool ReturnsStatusUnambiguously(const std::string& name) const {
    return status_returning.count(name) > 0 && other_returning.count(name) == 0;
  }
};

/// Cross-file facts collected in pass 1 and shared (read-only) by every
/// per-file lint pass: the R4 call-resolution table and the R9 map from
/// immutable shared-buffer member names to the file that declares them
/// (their construction site). `whole_program` marks a context collected
/// over every linted file (the driver, LintProgram) rather than a
/// single-file fixture; R12 runs only then, because fixtures declare
/// throwaway namespace-scope state for brevity.
struct ProjectContext {
  SymbolTable symbols;
  std::map<std::string, std::string> immutable_member_home;
  bool whole_program = false;
};

/// Lowercase name of a statement kind ("expr", "if", "loop", ...).
std::string_view StmtKindName(StmtKind kind);

/// Debug rendering of a CFG skeleton, one statement per line:
///   `<indent><kind>@<line> uses[a b] moves[c] resets[d] decls[e]`
/// Branches are nested two spaces deeper. Used by the parser tests to pin
/// the shapes the R8 analyzer walks.
std::string DumpStmts(const std::vector<Stmt>& stmts, int indent = 0);
std::string DumpFunction(const Function& fn);

}  // namespace crayfish::lint

#endif  // CRAYFISH_TOOLS_LINT_IR_H_
