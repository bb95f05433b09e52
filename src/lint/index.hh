#ifndef PISO_LINT_INDEX_HH
#define PISO_LINT_INDEX_HH

/**
 * @file
 * The semantic cross-file index behind piso-lint's project rules.
 *
 * The per-file token rules see one translation unit at a time; the
 * index is what lets a rule reason *across* files: which class declares
 * which non-static data members (parsed from headers), where each
 * `Class::method` definition lives, which files a file includes, and —
 * the checkpoint-specific part — the identifier sets referenced inside
 * every `serialize` body (and the location of any hand-written
 * `save(CkptWriter&)` / `load(CkptReader&)` body).
 *
 * Deliberately still not a C++ front end (no libclang): the index is
 * produced by a single pass over the existing lexer's token stream,
 * tracking only namespace/class/block scope, template angle brackets,
 * and statement boundaries. What it does and does not resolve is
 * documented in DESIGN.md ("semantic index"); the short version is
 * that names join by identifier text, not by symbol, which is exactly
 * right for a tree with project-unique type names and a style checker
 * that wants to stay fast and dependency-free.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "src/lint/lexer.hh"

namespace piso::lint {

/** One `#include "src/..."`-style project-relative include. */
struct IncludeEdge
{
    int line = 0;
    std::string target;  //!< as written, e.g. "src/os/vm.hh"
};

/** One non-static data member of a class. */
struct FieldDecl
{
    std::string name;
    int line = 0;
};

/** A class/struct and its non-static data members. */
struct ClassDecl
{
    std::string name;  //!< innermost name (joins across files by text)
    int line = 0;
    std::vector<FieldDecl> fields;
};

/** The body of one `Class::serialize(...)` definition, or of a
 *  hand-written `Class::save(CkptWriter&)` / `Class::load(CkptReader&)`
 *  (inline or out-of-line). */
struct CkptBody
{
    enum Kind
    {
        Serialize,
        Save,
        Load,
    };

    std::string className;
    Kind kind = Serialize;
    int line = 0;
    std::vector<std::string> idents;  //!< sorted unique body identifiers
};

/** One function *definition* (the function-to-file map). */
struct FuncDef
{
    std::string qualified;  //!< "Class::method" or a free "name"
    int line = 0;
};

/** Everything the project rules need to know about one file. */
struct FileSummary
{
    std::string path;          //!< project-relative
    std::uint64_t hash = 0;    //!< FNV-1a of the file contents
    std::vector<IncludeEdge> includes;
    std::vector<ClassDecl> classes;
    std::vector<CkptBody> ckptBodies;
    std::vector<FuncDef> functions;
    std::vector<Suppression> suppressions;
    /** Per-suppression resolved target line: the line the directive
     *  covers (own-line comments cover the next code line). Resolved at
     *  summary time so the engine can apply suppressions to cached
     *  files without re-lexing them. Empty-by-construction only for
     *  whole-file directives' entries (target 0 = any line). */
    std::vector<int> suppressionTargets;
};

/** The whole-project index: one summary per linted file, sorted by
 *  path. Non-owning views into the engine's storage. */
struct ProjectIndex
{
    std::vector<const FileSummary *> files;
};

/** FNV-1a over @p data — the content hash the incremental cache keys
 *  on (kept separate from the simulator's ckptFnv1a: the lint library
 *  must stay independent of libpiso). */
std::uint64_t lintFnv1a(const std::string &data);

/** Build a file's summary from its token stream (everything except
 *  `hash`, which only the engine knows). */
FileSummary summarizeFile(const SourceFile &file);

/**
 * The layer rank of a project-relative path, for the layering rule:
 * util/lint 0, sim 1, core 2, machine 3, os 4, workload 5, metrics 6,
 * src root (simulation/piso) 7, exp/config 8, tools/bench/examples 9.
 * Returns -1 for paths outside the ranked tree (tests, fixtures).
 */
int layerRank(const std::string &path);

/** Human name of a layer rank ("core", "os", ...). */
const char *layerName(int rank);

} // namespace piso::lint

#endif // PISO_LINT_INDEX_HH
