#include "lint/rules.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>

namespace praft::lint {

namespace {

using Toks = std::vector<Token>;

bool is_ident(const Toks& t, size_t i, const char* text) {
  return i < t.size() && t[i].kind == Tok::kIdent && t[i].text == text;
}
bool is_punct(const Toks& t, size_t i, const char* text) {
  return i < t.size() && t[i].kind == Tok::kPunct && t[i].text == text;
}

void emit(std::vector<Finding>* out, const FileModel& f, int line,
          const char* rule, std::string message) {
  if (is_suppressed(f, rule, line)) return;
  out->push_back(Finding{f.path, line, rule, std::move(message)});
}

// ---------------------------------------------------------------------------
// D1 — iteration over unordered containers.
//
// Three passes: (a) per-file `using ALIAS = ..unordered_..` aliases, (b)
// per-file declared names of unordered type (direct or via a closure-visible
// alias), (c) per-file detection of range-for / begin() over a
// closure-visible unordered name. Closure visibility is what lets
// `for (auto& kv : pending_)` in a .cpp convict a member declared unordered
// in the included header.
// ---------------------------------------------------------------------------

/// Skips a balanced template-argument list. `i` indexes the `<` token;
/// returns the index just past the matching `>`, or npos when the list never
/// closes sanely (a comparison operator misparse — `;`/`{` inside aborts).
size_t skip_angles(const Toks& t, size_t i) {
  int depth = 0;
  const size_t limit = std::min(t.size(), i + 400);
  for (; i < limit; ++i) {
    if (t[i].kind != Tok::kPunct) continue;
    if (t[i].text == "<") ++depth;
    else if (t[i].text == "<<") depth += 2;
    else if (t[i].text == ">") --depth;
    else if (t[i].text == ">>") depth -= 2;
    else if (t[i].text == ";" || t[i].text == "{") return Project::npos;
    if (depth <= 0) return i + 1;
  }
  return Project::npos;
}

/// `using NAME = ... unordered_map|unordered_set ... ;` -> NAME.
std::set<std::string> collect_aliases(const Toks& t) {
  std::set<std::string> out;
  for (size_t i = 0; i + 3 < t.size(); ++i) {
    if (!is_ident(t, i, "using") || t[i + 1].kind != Tok::kIdent ||
        !is_punct(t, i + 2, "=")) {
      continue;
    }
    for (size_t j = i + 3; j < t.size(); ++j) {
      if (is_punct(t, j, ";")) break;
      if (is_ident(t, j, "unordered_map") || is_ident(t, j, "unordered_set")) {
        out.insert(t[i + 1].text);
        break;
      }
    }
  }
  return out;
}

/// Names declared with unordered type in this file: either
/// `unordered_map<...> name` / `unordered_set<...> name` or
/// `ALIAS name` for a visible alias. Declarator may carry const/&/*;
/// `name(` is a function returning the container, not a declaration.
std::set<std::string> collect_unordered_decls(
    const Toks& t, const std::set<std::string>& visible_aliases) {
  std::set<std::string> out;
  const auto declared_name_at = [&](size_t j) -> std::string {
    while (is_ident(t, j, "const") || is_punct(t, j, "&") ||
           is_punct(t, j, "*")) {
      ++j;
    }
    if (j + 1 >= t.size() || t[j].kind != Tok::kIdent) return {};
    const std::string& next = t[j + 1].text;
    if (t[j + 1].kind == Tok::kPunct &&
        (next == ";" || next == "=" || next == "{" || next == "," ||
         next == ")")) {
      return t[j].text;
    }
    return {};
  };
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    if (t[i].text == "unordered_map" || t[i].text == "unordered_set") {
      if (!is_punct(t, i + 1, "<")) continue;
      const size_t past = skip_angles(t, i + 1);
      if (past == Project::npos) continue;
      if (std::string name = declared_name_at(past); !name.empty()) {
        out.insert(std::move(name));
      }
    } else if (visible_aliases.count(t[i].text) > 0 &&
               !(i > 0 && is_ident(t, i - 1, "using"))) {
      if (std::string name = declared_name_at(i + 1); !name.empty()) {
        out.insert(std::move(name));
      }
    }
  }
  return out;
}

void rule_d1(const Project& p, std::vector<Finding>* out) {
  const auto& files = p.files();
  std::vector<std::set<std::string>> aliases(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    aliases[i] = collect_aliases(files[i].lex.tokens);
  }
  std::vector<std::set<std::string>> decls(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    std::set<std::string> visible_aliases;
    for (const size_t j : p.closure(i)) {
      visible_aliases.insert(aliases[j].begin(), aliases[j].end());
    }
    decls[i] = collect_unordered_decls(files[i].lex.tokens, visible_aliases);
  }
  for (size_t i = 0; i < files.size(); ++i) {
    std::set<std::string> visible;
    for (const size_t j : p.closure(i)) {
      visible.insert(decls[j].begin(), decls[j].end());
    }
    if (visible.empty()) continue;
    const Toks& t = files[i].lex.tokens;
    for (size_t k = 0; k + 2 < t.size(); ++k) {
      // for (... : expr): convict when expr is a member/name chain whose
      // final identifier is a visible unordered container.
      if (is_ident(t, k, "for") && is_punct(t, k + 1, "(")) {
        int depth = 1;
        size_t colon = 0;
        size_t close = 0;
        for (size_t j = k + 2; j < t.size() && depth > 0; ++j) {
          if (t[j].kind != Tok::kPunct) continue;
          if (t[j].text == "(") ++depth;
          else if (t[j].text == ")") {
            if (--depth == 0) close = j;
          } else if (t[j].text == ":" && depth == 1 && colon == 0) {
            colon = j;
          }
        }
        if (colon == 0 || close <= colon + 1) continue;
        const Token& last = t[close - 1];
        if (last.kind == Tok::kIdent && visible.count(last.text) > 0) {
          emit(out, files[i], last.line, "D1",
               "range-for over unordered container '" + last.text +
                   "': iteration order is implementation-defined and breaks "
                   "seed-replay determinism; use an ordered container or "
                   "sort a snapshot first");
        }
      }
      // x.begin() / x->cbegin() / x.rbegin(): an explicit ordered walk.
      if (t[k].kind == Tok::kIdent && visible.count(t[k].text) > 0 &&
          (is_punct(t, k + 1, ".") || is_punct(t, k + 1, "->")) &&
          k + 3 < t.size() && t[k + 2].kind == Tok::kIdent &&
          (t[k + 2].text == "begin" || t[k + 2].text == "cbegin" ||
           t[k + 2].text == "rbegin" || t[k + 2].text == "crbegin") &&
          is_punct(t, k + 3, "(")) {
        emit(out, files[i], t[k].line, "D1",
             "iterator over unordered container '" + t[k].text +
                 "': iteration order is implementation-defined and breaks "
                 "seed-replay determinism; use an ordered container or sort "
                 "a snapshot first");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// D2 — nondeterminism sources outside common/rng.h.
// ---------------------------------------------------------------------------

const std::set<std::string>& d2_clocks() {
  static const std::set<std::string> s{"system_clock", "steady_clock",
                                       "high_resolution_clock"};
  return s;
}
const std::set<std::string>& d2_random_types() {
  static const std::set<std::string> s{
      "random_device", "mt19937",      "mt19937_64", "default_random_engine",
      "minstd_rand",   "minstd_rand0", "knuth_b"};
  return s;
}
const std::set<std::string>& d2_calls() {
  static const std::set<std::string> s{
      "rand",  "srand",        "rand_r",       "drand48",  "lrand48",
      "mrand48", "time",       "gettimeofday", "clock_gettime",
      "localtime", "gmtime",   "localtime_r",  "gmtime_r"};
  return s;
}

/// Distinguishes `time(nullptr)` (a call — convict) from `uint64_t time(...)`
/// (a declaration — skip). The token before the name decides: a
/// non-keyword identifier means a return type; `.`/`->` means a member of
/// some other class; `X::` for X != std means a qualified definition.
bool looks_like_call(const Toks& t, size_t i) {
  if (i == 0) return true;
  const Token& prev = t[i - 1];
  if (prev.kind == Tok::kPunct) {
    if (prev.text == "." || prev.text == "->") return false;
    if (prev.text == "::") {
      return i >= 2 && is_ident(t, i - 2, "std");
    }
    return true;
  }
  if (prev.kind == Tok::kIdent) {
    static const std::set<std::string> call_context{
        "return", "co_return", "co_yield", "co_await", "throw", "else", "do"};
    return call_context.count(prev.text) > 0;
  }
  return true;
}

void rule_d2(const Project& p, std::vector<Finding>* out) {
  for (const FileModel& f : p.files()) {
    if (f.path == "src/common/rng.h") continue;  // the one sanctioned source
    const Toks& t = f.lex.tokens;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Tok::kIdent) continue;
      const std::string& name = t[i].text;
      if (d2_clocks().count(name) > 0 && is_punct(t, i + 1, "::") &&
          is_ident(t, i + 2, "now")) {
        emit(out, f, t[i].line, "D2",
             name +
                 "::now() is wall-clock nondeterminism; trajectories must be "
                 "pure functions of the seed (use sim time / common/rng.h)");
      } else if (d2_random_types().count(name) > 0) {
        emit(out, f, t[i].line, "D2",
             "std::" + name +
                 " is a banned randomness source; all randomness must come "
                 "from the seeded praft::Rng (common/rng.h)");
      } else if (d2_calls().count(name) > 0 && is_punct(t, i + 1, "(") &&
                 looks_like_call(t, i)) {
        emit(out, f, t[i].line, "D2",
             name +
                 "() is a banned nondeterminism source; derive values from "
                 "the seeded praft::Rng (common/rng.h) or sim time");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// W1 — wire completeness per protocol directory.
// ---------------------------------------------------------------------------

struct VariantDecl {
  std::vector<std::string> alternatives;  // in declared (opcode) order
  size_t header = 0;                      // file index of the declaring header
  int line = 1;                           // line of the `using Message` token
};

/// Parses `using Message = std::variant<A, B, ...>` from a header's tokens.
/// Each alternative's name is the last identifier of its top-level segment,
/// so qualified names (`kv::Get`) resolve to the unqualified tail.
bool find_message_variant(const Toks& t, VariantDecl* out) {
  for (size_t i = 0; i + 6 < t.size(); ++i) {
    if (!(is_ident(t, i, "using") && is_ident(t, i + 1, "Message") &&
          is_punct(t, i + 2, "=") && is_ident(t, i + 3, "std") &&
          is_punct(t, i + 4, "::") && is_ident(t, i + 5, "variant") &&
          is_punct(t, i + 6, "<"))) {
      continue;
    }
    out->line = t[i].line;
    out->alternatives.clear();
    int depth = 1;
    std::string last_ident;
    for (size_t j = i + 7; j < t.size() && depth > 0; ++j) {
      if (t[j].kind == Tok::kIdent) {
        last_ident = t[j].text;
        continue;
      }
      if (t[j].kind != Tok::kPunct) continue;
      if (t[j].text == "<") ++depth;
      else if (t[j].text == "<<") depth += 2;
      else if (t[j].text == ">") --depth;
      else if (t[j].text == ">>") depth -= 2;
      else if (t[j].text == "," && depth == 1) {
        if (!last_ident.empty()) out->alternatives.push_back(last_ident);
        last_ident.clear();
      }
    }
    if (!last_ident.empty()) out->alternatives.push_back(last_ident);
    return !out->alternatives.empty();
  }
  return false;
}

/// `void put(WireWriter& w, const A& m)` somewhere in the codec.
bool has_put_overload(const Toks& t, const std::string& a) {
  for (size_t i = 0; i + 8 < t.size(); ++i) {
    if (is_ident(t, i, "put") && is_punct(t, i + 1, "(") &&
        is_ident(t, i + 2, "WireWriter") && is_punct(t, i + 3, "&") &&
        t[i + 4].kind == Tok::kIdent && is_punct(t, i + 5, ",") &&
        is_ident(t, i + 6, "const") && is_ident(t, i + 7, a.c_str()) &&
        is_punct(t, i + 8, "&")) {
      return true;
    }
  }
  return false;
}

/// `A get_*(WireReader& r)` somewhere in the codec.
bool has_get_function(const Toks& t, const std::string& a) {
  for (size_t i = 0; i + 3 < t.size(); ++i) {
    if (is_ident(t, i, a.c_str()) && t[i + 1].kind == Tok::kIdent &&
        t[i + 1].text.compare(0, 3, "get") == 0 && is_punct(t, i + 2, "(") &&
        is_ident(t, i + 3, "WireReader")) {
      return true;
    }
  }
  return false;
}

/// All integral `case K:` labels in the codec's decode switch.
std::set<int> collect_case_labels(const Toks& t) {
  std::set<int> out;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (is_ident(t, i, "case") && t[i + 1].kind == Tok::kNumber &&
        is_punct(t, i + 2, ":")) {
      out.insert(std::atoi(t[i + 1].text.c_str()));
    }
  }
  return out;
}

/// `operator==(const A&` in any of the directory's headers (defaulted friend
/// or free function both match).
bool has_equality(const std::vector<const FileModel*>& headers,
                  const std::string& a) {
  for (const FileModel* h : headers) {
    const Toks& t = h->lex.tokens;
    for (size_t i = 0; i + 4 < t.size(); ++i) {
      if (is_ident(t, i, "operator") && is_punct(t, i + 1, "==") &&
          is_punct(t, i + 2, "(") && is_ident(t, i + 3, "const") &&
          is_ident(t, i + 4, a.c_str())) {
        return true;
      }
    }
  }
  return false;
}

/// Line of `struct A` in the directory's headers; 0 if not found.
int struct_line(const std::vector<const FileModel*>& headers,
                const std::string& a, const FileModel** where) {
  for (const FileModel* h : headers) {
    const Toks& t = h->lex.tokens;
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      if (is_ident(t, i, "struct") && is_ident(t, i + 1, a.c_str())) {
        *where = h;
        return t[i].line;
      }
    }
  }
  return 0;
}

void rule_w1(const Project& p, std::vector<Finding>* out) {
  const auto& files = p.files();
  for (size_t wi = 0; wi < files.size(); ++wi) {
    const std::string& wpath = files[wi].path;
    if (wpath.size() < 9 ||
        wpath.compare(wpath.size() - 9, 9, "/wire.cpp") != 0) {
      continue;
    }
    const std::string dir = dir_of(wpath);
    std::vector<const FileModel*> headers;
    for (const FileModel& f : files) {
      if (dir_of(f.path) == dir && f.path.size() > 2 &&
          f.path.compare(f.path.size() - 2, 2, ".h") == 0) {
        headers.push_back(&f);
      }
    }
    VariantDecl decl;
    const FileModel* decl_header = nullptr;
    for (const FileModel* h : headers) {
      if (find_message_variant(h->lex.tokens, &decl)) {
        decl_header = h;
        break;
      }
    }
    if (decl_header == nullptr) continue;  // directory has no Message contract

    const Toks& wt = files[wi].lex.tokens;
    const std::set<int> cases = collect_case_labels(wt);
    for (size_t k = 0; k < decl.alternatives.size(); ++k) {
      const std::string& a = decl.alternatives[k];
      if (!has_put_overload(wt, a)) {
        emit(out, *decl_header, decl.line, "W1",
             "variant alternative '" + a + "' has no put(WireWriter&, const " +
                 a + "&) encoder in " + wpath);
      }
      if (!has_get_function(wt, a)) {
        emit(out, *decl_header, decl.line, "W1",
             "variant alternative '" + a + "' has no " + a +
                 " get_*(WireReader&) decoder in " + wpath);
      }
      if (cases.count(static_cast<int>(k)) == 0) {
        emit(out, *decl_header, decl.line, "W1",
             "decode switch in " + wpath + " has no case " +
                 std::to_string(k) + " (alternative '" + a + "')");
      }
      if (!has_equality(headers, a)) {
        const FileModel* where = decl_header;
        const int line = struct_line(headers, a, &where);
        emit(out, *where, line > 0 ? line : decl.line, "W1",
             "message '" + a +
                 "' lacks operator==; wire round-trip verification "
                 "requires equality");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// C1 — assert()/abort() in src/.
// ---------------------------------------------------------------------------

void rule_c1(const Project& p, std::vector<Finding>* out) {
  for (const FileModel& f : p.files()) {
    if (f.path.compare(0, 4, "src/") != 0) continue;
    const Toks& t = f.lex.tokens;
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != Tok::kIdent || !is_punct(t, i + 1, "(")) continue;
      const bool member =
          i > 0 && (is_punct(t, i - 1, ".") || is_punct(t, i - 1, "->"));
      if (t[i].text == "assert" && !member) {
        emit(out, f, t[i].line, "C1",
             "assert() vanishes under NDEBUG and kills the process under "
             "the simulator; use PRAFT_CHECK / PRAFT_CHECK_MSG "
             "(common/check.h)");
      } else if (t[i].text == "abort" && !member) {
        // std::abort( convicts; Foo::abort( is someone's method.
        if (i > 0 && is_punct(t, i - 1, "::") &&
            !(i >= 2 && is_ident(t, i - 2, "std"))) {
          continue;
        }
        emit(out, f, t[i].line, "C1",
             "abort() kills the process before invariant state is "
             "reported; use PRAFT_CHECK / PRAFT_CHECK_MSG "
             "(common/check.h)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// P1 — durability-barrier bypass in protocol code.
// ---------------------------------------------------------------------------

void rule_p1(const Project& p, std::vector<Finding>* out) {
  // src/consensus holds the Raft-family core (raft_family.h), whose sends
  // are Raft's and Raft*'s protocol sends.
  static const char* kProtocolDirs[] = {"src/raft", "src/raftstar",
                                        "src/paxos", "src/mencius",
                                        "src/consensus"};
  for (const FileModel& f : p.files()) {
    bool in_scope = false;
    for (const char* d : kProtocolDirs) in_scope |= in_dir(f.path, d);
    if (!in_scope) continue;
    const Toks& t = f.lex.tokens;
    for (size_t i = 2; i + 1 < t.size(); ++i) {
      if (t[i].kind != Tok::kIdent ||
          (t[i].text != "send" && t[i].text != "send_unsynced") ||
          !is_punct(t, i + 1, "(")) {
        continue;
      }
      if (!is_punct(t, i - 1, ".") && !is_punct(t, i - 1, "->")) continue;
      const Token& recv = t[i - 2];
      if (recv.kind == Tok::kIdent && recv.text == "persister_") continue;
      const std::string shown =
          recv.kind == Tok::kIdent ? recv.text : std::string("<expr>");
      emit(out, f, t[i].line, "P1",
           "raw " + shown + "." + t[i].text +
               "() bypasses the Persister durability seam; protocol sends "
               "must go through persister_.send / persister_.send_unsynced "
               "so payloads never outrun their fsync barrier");
    }
  }
}

}  // namespace

std::vector<Finding> run_rules(const Project& p) {
  return run_rules(p, {});
}

std::vector<Finding> run_rules(const Project& p,
                               const std::set<std::string>& only) {
  const auto enabled = [&](const char* r) {
    return only.empty() || only.count(r) > 0;
  };
  std::vector<Finding> out;
  if (enabled("D1")) rule_d1(p, &out);
  if (enabled("D2")) rule_d2(p, &out);
  if (enabled("W1")) rule_w1(p, &out);
  if (enabled("C1")) rule_c1(p, &out);
  if (enabled("P1")) rule_p1(p, &out);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  return out;
}

}  // namespace praft::lint
