// The rule catalog. Each rule is a small function over pre-lexed sources;
// to add one, write the function, append it in run_rules, document it in
// DESIGN.md, and seed a fixture in tests/tools/fixtures.
#include "rules.hpp"

#include "tokenizer.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace pcmd::analyze {
namespace {

// Pre-lexed view of one source file shared by all rules.
struct Unit {
  const Source* source = nullptr;
  std::vector<Token> tokens;
  struct Include {
    std::string target;  // path between the delimiters
    bool quoted = false; // "..." (project) vs <...> (system)
    int line = 0;
  };
  std::vector<Include> includes;
};

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

// ---- include extraction ---------------------------------------------------

std::vector<Unit::Include> parse_includes(const std::string& text) {
  std::vector<Unit::Include> includes;
  std::istringstream stream(text);
  std::string line;
  int lineno = 0;
  while (std::getline(stream, line)) {
    ++lineno;
    std::size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos || line[i] != '#') continue;
    i = line.find_first_not_of(" \t", i + 1);
    if (i == std::string::npos || line.compare(i, 7, "include") != 0) continue;
    i = line.find_first_not_of(" \t", i + 7);
    if (i == std::string::npos) continue;
    const char open = line[i];
    const char close = open == '"' ? '"' : (open == '<' ? '>' : '\0');
    if (close == '\0') continue;  // computed include (macro) — out of scope
    const std::size_t end = line.find(close, i + 1);
    if (end == std::string::npos) continue;
    includes.push_back(
        {line.substr(i + 1, end - i - 1), open == '"', lineno});
  }
  return includes;
}

// ---- layering -------------------------------------------------------------
//
// Total order over src/ layers; a file in src/<L>/ may quote-include only
// headers from layers at or below L. src/pcmd.hpp (the umbrella) lives in
// no layer directory and is exempt by construction.

int layer_rank(const std::string& name) {
  static const std::map<std::string, int> kRanks = {
      {"util", 0}, {"sim", 1},  {"obs", 2},  {"md", 3},
      {"workload", 4}, {"core", 5}, {"ddm", 6}, {"theory", 7}, {"run", 8},
      {"serve", 9}};
  const auto it = kRanks.find(name);
  return it == kRanks.end() ? -1 : it->second;
}

// Layer of a path like "src/ddm/wire.cpp" or an include target like
// "ddm/wire.hpp"; -1 when the path is not inside a known layer.
int layer_of(const std::string& path, const std::string& prefix) {
  if (!starts_with(path, prefix)) return -1;
  const std::size_t start = prefix.size();
  const std::size_t slash = path.find('/', start);
  if (slash == std::string::npos) return -1;
  return layer_rank(path.substr(start, slash - start));
}

void rule_layering(const Unit& unit, std::vector<Finding>& findings) {
  const int mine = layer_of(unit.source->path, "src/");
  if (mine < 0) return;  // not in a layer (umbrella header, tests, tools)
  for (const auto& include : unit.includes) {
    if (!include.quoted) continue;
    const int target = layer_of(include.target, "");
    if (target < 0 || target <= mine) continue;
    std::ostringstream os;
    os << "layer violation: " << unit.source->path << " includes \""
       << include.target
       << "\" from a higher layer (allowed order: util < sim < obs < md < "
          "workload < core < ddm < theory < run < serve)";
    findings.push_back(
        {"layering", unit.source->path, include.line, os.str()});
  }
}

// ---- include cycles -------------------------------------------------------

// Resolves a quoted include to a display path present in `known`, trying
// sibling-relative, src/-relative and root-relative in that order.
std::string resolve_include(const std::string& from, const std::string& target,
                            const std::set<std::string>& known) {
  const std::size_t slash = from.rfind('/');
  if (slash != std::string::npos) {
    const std::string sibling = from.substr(0, slash + 1) + target;
    if (known.count(sibling)) return sibling;
  }
  if (known.count("src/" + target)) return "src/" + target;
  if (known.count(target)) return target;
  return "";
}

void rule_include_cycles(const std::vector<Unit>& units,
                         std::vector<Finding>& findings) {
  std::set<std::string> known;
  for (const auto& unit : units) known.insert(unit.source->path);

  std::map<std::string, std::vector<std::pair<std::string, int>>> graph;
  for (const auto& unit : units) {
    for (const auto& include : unit.includes) {
      if (!include.quoted) continue;
      const std::string to =
          resolve_include(unit.source->path, include.target, known);
      if (!to.empty()) {
        graph[unit.source->path].push_back({to, include.line});
      }
    }
  }

  // Colored DFS; each cycle is reported once, anchored at the edge that
  // closes it. Deterministic: maps iterate in path order.
  std::map<std::string, int> color;  // 0 white, 1 on stack, 2 done
  std::vector<std::string> stack;
  std::set<std::string> reported;

  auto dfs = [&](auto&& self, const std::string& node) -> void {
    color[node] = 1;
    stack.push_back(node);
    for (const auto& [next, line] : graph[node]) {
      if (color[next] == 2) continue;
      if (color[next] == 1) {
        // Canonical cycle key so A->B->A and B->A->B report once.
        auto at = std::find(stack.begin(), stack.end(), next);
        std::vector<std::string> cycle(at, stack.end());
        std::vector<std::string> sorted = cycle;
        std::sort(sorted.begin(), sorted.end());
        std::string key;
        for (const auto& p : sorted) key += p + ";";
        if (!reported.insert(key).second) continue;
        std::ostringstream os;
        os << "include cycle: ";
        for (const auto& p : cycle) os << p << " -> ";
        os << next;
        findings.push_back({"include-cycle", node, line, os.str()});
        continue;
      }
      self(self, next);
    }
    stack.pop_back();
    color[node] = 2;
  };
  for (const auto& unit : units) {
    if (color[unit.source->path] == 0) dfs(dfs, unit.source->path);
  }
}

// ---- determinism: unordered containers in protocol code -------------------
//
// Host hash seeds and allocation addresses leak into unordered_* iteration
// order. The sim and ddm layers must be bitwise reproducible across engines
// and machines, so the containers are banned there outright (not merely
// "don't iterate": an unordered container in protocol state is one refactor
// away from being iterated).

void rule_unordered_container(const Unit& unit,
                              std::vector<Finding>& findings) {
  const auto& path = unit.source->path;
  if (!starts_with(path, "src/ddm/") && !starts_with(path, "src/sim/")) {
    return;
  }
  static const std::set<std::string> kBanned = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (const auto& token : unit.tokens) {
    if (token.kind != Token::Kind::kIdentifier) continue;
    if (!kBanned.count(token.text)) continue;
    findings.push_back(
        {"unordered-container", path, token.line,
         "std::" + token.text +
             " in protocol code — iteration order depends on host hashing; "
             "use std::map/std::set or a sorted vector"});
  }
}

// ---- determinism: wall-clock and libc randomness --------------------------
//
// All time in the virtual machine is Comm::clock(); all randomness is
// pcmd::Rng. Only src/obs (which timestamps exports for humans) may touch
// the host clock.

void rule_wall_clock(const Unit& unit, std::vector<Finding>& findings) {
  const auto& path = unit.source->path;
  if (!starts_with(path, "src/") || starts_with(path, "src/obs/")) return;
  static const std::set<std::string> kCalls = {"rand", "srand", "time",
                                               "clock_gettime",
                                               "gettimeofday"};
  static const std::set<std::string> kNames = {
      "system_clock", "steady_clock", "high_resolution_clock"};
  const auto& tokens = unit.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const auto& token = tokens[i];
    if (token.kind != Token::Kind::kIdentifier) continue;
    // Member access (config.time, rank->time) is not the libc function.
    const bool member =
        i > 0 && tokens[i - 1].kind == Token::Kind::kPunct &&
        (tokens[i - 1].text == "." ||
         (tokens[i - 1].text == ">" && i > 1 && tokens[i - 2].text == "-"));
    if (member) continue;
    const bool call = i + 1 < tokens.size() &&
                      tokens[i + 1].kind == Token::Kind::kPunct &&
                      tokens[i + 1].text == "(";
    if ((kCalls.count(token.text) && call) || kNames.count(token.text)) {
      findings.push_back(
          {"wall-clock", path, token.line,
           token.text +
               " outside src/obs — simulations must use virtual time "
               "(Comm::clock) and pcmd::Rng so runs are reproducible"});
    }
  }
}

// ---- serve durability: no raw file writes ---------------------------------
//
// The serve layer's crash-safety argument rests on exactly two write paths:
// the ResultStore's temp+rename rewrite and the JobJournal's CRC-framed
// flushed append. A raw ofstream/fopen anywhere else in src/serve is a
// state write the recovery replay cannot see — it would silently widen the
// durability surface the crash-replay sweep certifies.

void rule_serve_durable_writes(const Unit& unit,
                               std::vector<Finding>& findings) {
  const auto& path = unit.source->path;
  if (!starts_with(path, "src/serve/")) return;
  if (path == "src/serve/store.cpp" || path == "src/serve/journal.cpp") {
    return;  // the two sanctioned write paths
  }
  // Stream types count wherever they appear; the C functions only as calls
  // (a member or local named fopen is odd, but it is not the filesystem).
  static const std::set<std::string> kCalls = {"fopen", "freopen"};
  static const std::set<std::string> kTypes = {"ofstream", "fstream"};
  const auto& tokens = unit.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const auto& token = tokens[i];
    if (token.kind != Token::Kind::kIdentifier) continue;
    const bool member =
        i > 0 && tokens[i - 1].kind == Token::Kind::kPunct &&
        (tokens[i - 1].text == "." ||
         (tokens[i - 1].text == ">" && i > 1 && tokens[i - 2].text == "-"));
    if (member) continue;
    const bool call = i + 1 < tokens.size() &&
                      tokens[i + 1].kind == Token::Kind::kPunct &&
                      tokens[i + 1].text == "(";
    if (!((kCalls.count(token.text) && call) || kTypes.count(token.text))) {
      continue;
    }
    findings.push_back(
        {"serve-durable-writes", path, token.line,
         token.text +
             " in src/serve outside the store/journal — durable serve "
             "state must go through ResultStore (temp+rename) or "
             "JobJournal (CRC-framed flushed append) so crash recovery "
             "replays every write"});
  }
}

// ---- ddm compute charge: one place -----------------------------------------
//
// The virtual-time compute charge is what Figs. 5 and 6 measure. The
// rank-local core (src/ddm/rank_md.*) charges it for both the pillar and
// the slab engine; a force sweep or clock advance anywhere else in src/ddm
// would let one engine charge differently from the other.

void rule_ddm_compute_charge(const Unit& unit,
                             std::vector<Finding>& findings) {
  const auto& path = unit.source->path;
  if (!starts_with(path, "src/ddm/")) return;
  if (path == "src/ddm/rank_md.hpp" || path == "src/ddm/rank_md.cpp") {
    return;  // the core itself
  }
  static const std::set<std::string> kCalls = {"accumulate_forces",
                                               "advance_compute"};
  const auto& tokens = unit.tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    const auto& token = tokens[i];
    if (token.kind != Token::Kind::kIdentifier) continue;
    const bool call = tokens[i + 1].kind == Token::Kind::kPunct &&
                      tokens[i + 1].text == "(";
    if (!call) continue;
    const bool member =
        i > 0 && tokens[i - 1].kind == Token::Kind::kPunct &&
        (tokens[i - 1].text == "." ||
         (tokens[i - 1].text == ">" && i > 1 && tokens[i - 2].text == "-"));
    if (!kCalls.count(token.text) && !(member && token.text == "advance")) {
      continue;
    }
    findings.push_back(
        {"ddm-compute-charge", path, token.line,
         token.text +
             " in src/ddm outside the rank-local core — virtual-time "
             "compute charges go through ddm::RankMd (ddm/rank_md), so both "
             "engines charge alike"});
  }
}

// ---- naked assert ---------------------------------------------------------
//
// assert vanishes under NDEBUG, aborts instead of reporting, and carries no
// context. static_assert is a distinct token and never matches.

void rule_naked_assert(const Unit& unit, std::vector<Finding>& findings) {
  const auto& tokens = unit.tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind == Token::Kind::kIdentifier &&
        tokens[i].text == "assert" &&
        tokens[i + 1].kind == Token::Kind::kPunct &&
        tokens[i + 1].text == "(") {
      findings.push_back(
          {"naked-assert", unit.source->path, tokens[i].line,
           "naked assert() — use PCMD_CHECK/PCMD_ASSERT (core/check.hpp)"});
    }
  }
}

// ---- pointer-keyed ordered containers -------------------------------------
//
// std::map<T*, ...> iterates in address order — allocation order, i.e.
// schedule order. Flags a '*' at template depth 0 of the key argument.

void rule_pointer_key(const Unit& unit, std::vector<Finding>& findings) {
  const auto& path = unit.source->path;
  if (!starts_with(path, "src/")) return;
  static const std::set<std::string> kContainers = {"map", "set", "multimap",
                                                    "multiset"};
  const auto& tokens = unit.tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdentifier ||
        !kContainers.count(tokens[i].text)) {
      continue;
    }
    if (tokens[i + 1].kind != Token::Kind::kPunct ||
        tokens[i + 1].text != "<") {
      continue;
    }
    // Only std:: (or pcmd-qualified) containers; a local variable named
    // `set` compared with `<` would otherwise trip this.
    const bool qualified = i > 0 && tokens[i - 1].kind == Token::Kind::kPunct &&
                           tokens[i - 1].text == ":";
    if (!qualified) continue;
    int depth = 1;
    for (std::size_t j = i + 2; j < tokens.size() && depth > 0; ++j) {
      const auto& t = tokens[j];
      if (t.kind != Token::Kind::kPunct) continue;
      if (t.text == "<") ++depth;
      else if (t.text == ">") --depth;
      else if (t.text == "(") break;  // comparison expression, not a template
      else if (depth == 1 && t.text == ",") break;  // key argument ended
      else if (depth == 1 && t.text == "*") {
        findings.push_back(
            {"pointer-key", path, tokens[i].line,
             "pointer-keyed std::" + tokens[i].text +
                 " — iteration follows allocation addresses, which are not "
                 "deterministic; key on a stable id instead"});
        break;
      }
    }
  }
}

// ---- hot-path allocation --------------------------------------------------
//
// PCMD_HOT (util/hot.hpp) marks functions on the per-step critical path;
// they must work out of caller-owned, reusable scratch. Flags `new`
// expressions, make_unique/make_shared calls, and std::vector construction
// inside an annotated function's body. Declarations (';' before the body),
// member vectors, and unannotated functions stay legal.

void rule_hot_alloc(const Unit& unit, std::vector<Finding>& findings) {
  const auto& path = unit.source->path;
  if (!starts_with(path, "src/")) return;
  const auto& tokens = unit.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdentifier ||
        tokens[i].text != "PCMD_HOT") {
      continue;
    }
    // The macro's own `#define PCMD_HOT` line is not an annotation.
    if (i > 0 && tokens[i - 1].kind == Token::Kind::kIdentifier &&
        tokens[i - 1].text == "define") {
      continue;
    }
    // The annotated function's body: the first '{' after the annotation. A
    // ';' first means this was a declaration — nothing to scan.
    std::size_t open = 0;
    for (std::size_t j = i + 1; j < tokens.size(); ++j) {
      if (tokens[j].kind != Token::Kind::kPunct) continue;
      if (tokens[j].text == ";") break;
      if (tokens[j].text == "{") {
        open = j;
        break;
      }
    }
    if (open == 0) continue;
    int braces = 0;
    for (std::size_t j = open; j < tokens.size(); ++j) {
      const auto& t = tokens[j];
      if (t.kind == Token::Kind::kPunct) {
        if (t.text == "{") ++braces;
        if (t.text == "}" && --braces == 0) break;
        continue;
      }
      if (t.kind != Token::Kind::kIdentifier) continue;
      std::string what;
      if (t.text == "new") {
        what = "`new` expression";
      } else if (t.text == "make_unique" || t.text == "make_shared") {
        what = "std::" + t.text + " call";
      } else if (t.text == "vector" && j + 1 < tokens.size() &&
                 tokens[j + 1].kind == Token::Kind::kPunct &&
                 tokens[j + 1].text == "<" && j > 0 &&
                 tokens[j - 1].kind == Token::Kind::kPunct &&
                 tokens[j - 1].text == ":") {
        what = "std::vector construction";
      }
      if (!what.empty()) {
        findings.push_back(
            {"hot-alloc", path, t.line,
             what + " inside a PCMD_HOT function — hot-path code must reuse "
                    "preallocated workspace (util/hot.hpp), not allocate per "
                    "step"});
      }
    }
  }
}

// ---- include-block sort (mirrors tools/lint.sh) ---------------------------
//
// Within each run of consecutive #include lines, full lines must be sorted;
// blocks (separated by anything else, usually a blank line) may appear in
// any order — own-header-first stays legal.

void rule_include_sort(const Unit& unit, std::vector<Finding>& findings) {
  const auto& includes = unit.includes;
  for (std::size_t i = 1; i < includes.size(); ++i) {
    const bool same_block = includes[i].line == includes[i - 1].line + 1;
    if (!same_block) continue;
    // Compare as the raw line would: quoted before angled ('"' < '<'),
    // then target text.
    const auto key = [](const Unit::Include& inc) {
      return std::string(1, inc.quoted ? '"' : '<') + inc.target;
    };
    if (key(includes[i]) < key(includes[i - 1])) {
      findings.push_back({"include-sort", unit.source->path, includes[i].line,
                          "unsorted #include block: \"" + includes[i].target +
                              "\" sorts before the previous include"});
    }
  }
}

// ---- wire hygiene: pack/unpack pairing ------------------------------------
//
// Every wire format has two sides that must agree field for field. For each
// pack_X *definition* the same file must define unpack_X, the bodies must
// make the same number of put-family and get-family calls, and the set of
// member fields touched (identifiers after '.'/'->', minus packer/container
// infrastructure) must match. Catches the classic drift: a field added to
// pack_digest but not to unpack_digest.

struct WireFunction {
  std::string name;
  int line = 0;
  std::size_t body_begin = 0;  // token index of '{'
  std::size_t body_end = 0;    // token index past matching '}'
};

// Finds definitions named pack_* / unpack_*: identifier, '(', matching ')',
// then '{' (possibly after const/noexcept/trailing-return tokens, but not
// past a ';'). Lambdas (`auto pack_x = [&]...`) and declarations don't match.
std::vector<WireFunction> wire_definitions(const std::vector<Token>& tokens) {
  std::vector<WireFunction> defs;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    const auto& t = tokens[i];
    if (t.kind != Token::Kind::kIdentifier) continue;
    if (!starts_with(t.text, "pack_") && !starts_with(t.text, "unpack_")) {
      continue;
    }
    if (tokens[i + 1].kind != Token::Kind::kPunct ||
        tokens[i + 1].text != "(") {
      continue;
    }
    // Match the parameter list.
    std::size_t j = i + 1;
    int parens = 0;
    for (; j < tokens.size(); ++j) {
      if (tokens[j].kind != Token::Kind::kPunct) continue;
      if (tokens[j].text == "(") ++parens;
      if (tokens[j].text == ")" && --parens == 0) break;
    }
    if (j >= tokens.size()) continue;
    // Definition iff a '{' follows before any ';', ',' or ')'. A close
    // paren right after the argument list means this was a call expression
    // nested in a larger one (e.g. a range-for over unpack_halo(...)).
    std::size_t open = 0;
    for (std::size_t k = j + 1; k < tokens.size(); ++k) {
      if (tokens[k].kind != Token::Kind::kPunct) continue;
      if (tokens[k].text == ";" || tokens[k].text == "," ||
          tokens[k].text == ")" || tokens[k].text == "}") {
        break;
      }
      if (tokens[k].text == "{") {
        open = k;
        break;
      }
    }
    if (open == 0) continue;
    int braces = 0;
    std::size_t end = open;
    for (; end < tokens.size(); ++end) {
      if (tokens[end].kind != Token::Kind::kPunct) continue;
      if (tokens[end].text == "{") ++braces;
      if (tokens[end].text == "}" && --braces == 0) break;
    }
    defs.push_back({t.text, t.line, open, std::min(end + 1, tokens.size())});
  }
  return defs;
}

void rule_wire_pairing(const Unit& unit, std::vector<Finding>& findings) {
  const auto& path = unit.source->path;
  if (!starts_with(path, "src/")) return;
  const auto defs = wire_definitions(unit.tokens);
  if (defs.empty()) return;

  std::map<std::string, const WireFunction*> packs, unpacks;
  for (const auto& def : defs) {
    if (starts_with(def.name, "pack_")) {
      packs[def.name.substr(5)] = &def;
    } else {
      unpacks[def.name.substr(7)] = &def;
    }
  }

  // Packer/Unpacker/container machinery: member accesses that say nothing
  // about which wire fields the function touches.
  static const std::set<std::string> kInfra = {
      "put",      "put_vector", "get",     "get_vector", "take",
      "exhausted", "remaining", "data",    "size",       "begin",
      "end",      "empty",      "push_back", "emplace_back", "reserve",
      "resize",   "clear",      "back",    "front",      "what",
      "first",    "second",     "c_str"};

  const auto body_stats = [&](const WireFunction& def, bool pack) {
    std::size_t calls = 0;
    std::set<std::string> fields;
    for (std::size_t i = def.body_begin; i < def.body_end; ++i) {
      const auto& t = unit.tokens[i];
      if (t.kind != Token::Kind::kIdentifier) continue;
      if (starts_with(t.text, pack ? "put" : "get")) ++calls;
      const bool member =
          i > 0 && unit.tokens[i - 1].kind == Token::Kind::kPunct &&
          (unit.tokens[i - 1].text == "." ||
           (unit.tokens[i - 1].text == ">" && i > 1 &&
            unit.tokens[i - 2].text == "-"));
      if (member && !kInfra.count(t.text)) fields.insert(t.text);
    }
    return std::make_pair(calls, fields);
  };

  for (const auto& [name, pack] : packs) {
    const auto it = unpacks.find(name);
    if (it == unpacks.end()) {
      findings.push_back({"wire-pairing", path, pack->line,
                          "pack_" + name + " has no matching unpack_" + name +
                              " in this file — one side of the wire format "
                              "is missing"});
      continue;
    }
    const auto [puts, pack_fields] = body_stats(*pack, /*pack=*/true);
    const auto [gets, unpack_fields] = body_stats(*it->second, /*pack=*/false);
    if (puts != gets) {
      std::ostringstream os;
      os << "pack_" << name << " makes " << puts << " put-family call(s) but "
         << "unpack_" << name << " makes " << gets
         << " get-family call(s) — the two sides of the wire format "
            "disagree";
      findings.push_back({"wire-pairing", path, pack->line, os.str()});
    }
    if (pack_fields != unpack_fields) {
      const auto diff = [](const std::set<std::string>& a,
                           const std::set<std::string>& b) {
        std::string out;
        for (const auto& f : a) {
          if (!b.count(f)) out += (out.empty() ? "" : ", ") + f;
        }
        return out;
      };
      std::ostringstream os;
      os << "pack_" << name << " and unpack_" << name
         << " touch different field sets";
      const std::string only_pack = diff(pack_fields, unpack_fields);
      const std::string only_unpack = diff(unpack_fields, pack_fields);
      if (!only_pack.empty()) os << "; only packed: " << only_pack;
      if (!only_unpack.empty()) os << "; only unpacked: " << only_unpack;
      findings.push_back({"wire-pairing", path, pack->line, os.str()});
    }
  }
  for (const auto& [name, unpack] : unpacks) {
    if (!packs.count(name)) {
      findings.push_back({"wire-pairing", path, unpack->line,
                          "unpack_" + name + " has no matching pack_" + name +
                              " in this file — one side of the wire format "
                              "is missing"});
    }
  }
}

}  // namespace

void run_rules(const std::vector<Source>& sources,
               std::vector<Finding>& findings) {
  std::vector<Unit> units;
  units.reserve(sources.size());
  for (const auto& source : sources) {
    Unit unit;
    unit.source = &source;
    unit.tokens = tokenize(source.text);
    unit.includes = parse_includes(source.text);
    units.push_back(std::move(unit));
  }
  for (const auto& unit : units) {
    rule_layering(unit, findings);
    rule_unordered_container(unit, findings);
    rule_wall_clock(unit, findings);
    rule_serve_durable_writes(unit, findings);
    rule_ddm_compute_charge(unit, findings);
    rule_naked_assert(unit, findings);
    rule_pointer_key(unit, findings);
    rule_hot_alloc(unit, findings);
    rule_include_sort(unit, findings);
    rule_wire_pairing(unit, findings);
  }
  rule_include_cycles(units, findings);
}

}  // namespace pcmd::analyze
