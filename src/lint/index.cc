#include "src/lint/index.hh"

#include <algorithm>

namespace piso::lint {

namespace {

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

/**
 * A cursor over the non-preprocessor tokens of a file, with the small
 * amount of structure the index needs: statement boundaries, balanced
 * (), {}, <> groups, and the namespace/class scope stack.
 */
class Parser
{
  public:
    Parser(const SourceFile &file, FileSummary &out) : out_(out)
    {
        code_.reserve(file.tokens.size());
        for (const Token &t : file.tokens) {
            if (!t.preproc)
                code_.push_back(&t);
        }
    }

    /** Parse the whole file (namespace scope). */
    void
    run()
    {
        parseScope(/*inClass=*/false, /*classIdx=*/0);
    }

  private:
    const Token &tok(std::size_t i) const { return *code_[i]; }

    const std::string &
    text(std::size_t i) const
    {
        static const std::string kEmpty;
        return i < code_.size() ? code_[i]->text : kEmpty;
    }

    bool
    isIdent(std::size_t i, const char *s) const
    {
        return i < code_.size() && code_[i]->kind == TokKind::Ident &&
               code_[i]->text == s;
    }

    /** Skip a balanced <...> group starting at pos_ == '<'. Gives up
     *  (restores pos_) if the group doesn't close — then it was a
     *  comparison, not template arguments. */
    void
    skipAngles()
    {
        const std::size_t start = pos_;
        int depth = 0;
        while (pos_ < code_.size()) {
            const std::string &x = text(pos_);
            if (x == "<") {
                ++depth;
            } else if (x == ">") {
                if (--depth == 0) {
                    ++pos_;
                    return;
                }
            } else if (x == ";" || x == "{" || x == "}") {
                break;  // never closed: not a template head
            }
            ++pos_;
        }
        pos_ = start + 1;
    }

    /** Skip a balanced group opened by the bracket at pos_. */
    void
    skipBalanced(const char *open, const char *close)
    {
        int depth = 0;
        while (pos_ < code_.size()) {
            const std::string &x = text(pos_);
            if (x == open) {
                ++depth;
            } else if (x == close) {
                if (--depth == 0) {
                    ++pos_;
                    return;
                }
            }
            ++pos_;
        }
    }

    /** Consume a function body (pos_ at '{'), collecting the unique
     *  identifiers referenced inside it. */
    std::vector<std::string>
    collectBody()
    {
        std::vector<std::string> idents;
        int depth = 0;
        while (pos_ < code_.size()) {
            const Token &t = tok(pos_);
            if (t.text == "{") {
                ++depth;
            } else if (t.text == "}") {
                if (--depth == 0) {
                    ++pos_;
                    break;
                }
            } else if (t.kind == TokKind::Ident) {
                idents.push_back(t.text);
            }
            ++pos_;
        }
        std::sort(idents.begin(), idents.end());
        idents.erase(std::unique(idents.begin(), idents.end()),
                     idents.end());
        return idents;
    }

    /** Parse one class/struct head (pos_ just past the keyword) and,
     *  if a definition follows, its body. */
    void
    parseClassHead()
    {
        // Name: the last identifier before '{', ':' (base clause), or
        // ';' (forward declaration). Skips attributes and macros.
        std::string name;
        int nameLine = 0;
        while (pos_ < code_.size()) {
            const Token &t = tok(pos_);
            if (t.kind == TokKind::Ident && t.text != "final" &&
                t.text != "alignas") {
                name = t.text;
                nameLine = t.line;
                ++pos_;
                continue;
            }
            if (t.text == "<") {  // explicit specialisation head
                skipAngles();
                continue;
            }
            break;
        }
        // Base clause: skip to '{' or ';'.
        while (pos_ < code_.size() && text(pos_) != "{" &&
               text(pos_) != ";") {
            if (text(pos_) == "<")
                skipAngles();
            else
                ++pos_;
        }
        if (pos_ >= code_.size() || text(pos_) == ";") {
            if (pos_ < code_.size())
                ++pos_;  // forward declaration
            return;
        }
        ++pos_;  // '{'
        out_.classes.push_back({name, nameLine, {}});
        const std::size_t idx = out_.classes.size() - 1;
        parseScope(/*inClass=*/true, idx);
        // Optional declarator list after the body ('} instance;').
        while (pos_ < code_.size() && text(pos_) != ";" &&
               text(pos_) != "}")
            ++pos_;
        if (pos_ < code_.size() && text(pos_) == ";")
            ++pos_;
    }

    /**
     * Parse one generic statement at namespace or class scope: a
     * declaration, a function definition (body consumed, FuncDef and
     * CkptBody recorded), or — in a class — a data-member declaration
     * (FieldDecl recorded).
     */
    void
    parseStatement(bool inClass, std::size_t classIdx)
    {
        const std::size_t start = pos_;
        bool sawEquals = false;       // top-level '=' before any '{'
        bool sawColon = false;        // top-level ':' (bitfield / ctor)
        bool sawSemi = false;         // statement ended with ';'
        bool isOperator = false;      // 'operator' anywhere: a function
        std::size_t parenOpen = 0;    // first top-level '(' index
        std::size_t parenClose = 0;
        std::string lastIdent;        // last top-level identifier
        int lastIdentLine = 0;
        std::string nameBeforeParen;  // identifier preceding the '('
        std::string qualBeforeParen;  // 'Class' in Class::name(

        while (pos_ < code_.size()) {
            const Token &t = tok(pos_);
            const std::string &x = t.text;
            if (x == ";") {
                sawSemi = true;
                ++pos_;
                break;
            }
            if (x == "}")
                break;  // enclosing scope closes; don't consume
            if (x == "{") {
                // Function body vs brace initializer.
                const bool function = parenOpen != 0 && !sawEquals;
                if (function) {
                    std::string qual = qualBeforeParen;
                    if (qual.empty() && inClass)
                        qual = out_.classes[classIdx].name;
                    const std::string &fname = nameBeforeParen;
                    const int line = tok(start).line;
                    if (!fname.empty()) {
                        out_.functions.push_back(
                            {qual.empty() ? fname : qual + "::" + fname,
                             line});
                    }
                    const bool isSave = fname == "save";
                    bool ckptParam = false;
                    for (std::size_t j = parenOpen;
                         j <= parenClose && j < code_.size(); ++j) {
                        if (text(j) ==
                            (isSave ? "CkptWriter" : "CkptReader"))
                            ckptParam = true;
                    }
                    std::vector<std::string> idents = collectBody();
                    const bool handPaired =
                        (isSave || fname == "load") && ckptParam;
                    if ((fname == "serialize" || handPaired) &&
                        !qual.empty()) {
                        out_.ckptBodies.push_back(
                            {qual,
                             !handPaired ? CkptBody::Serialize
                             : isSave    ? CkptBody::Save
                                         : CkptBody::Load,
                             line, std::move(idents)});
                    }
                    return;
                }
                skipBalanced("{", "}");
                continue;
            }
            if (x == "(") {
                if (parenOpen == 0 && !sawEquals && !sawColon) {
                    parenOpen = pos_;
                    nameBeforeParen = lastIdent;
                    if (pos_ >= 2 && text(pos_ - 2) == "::" &&
                        pos_ >= 3 &&
                        code_[pos_ - 3]->kind == TokKind::Ident)
                        qualBeforeParen = text(pos_ - 3);
                    skipBalanced("(", ")");
                    parenClose = pos_ - 1;
                } else {
                    skipBalanced("(", ")");
                }
                continue;
            }
            if (x == "[") {
                skipBalanced("[", "]");
                continue;
            }
            if (x == "<" && pos_ > start &&
                code_[pos_ - 1]->kind == TokKind::Ident) {
                skipAngles();
                continue;
            }
            if (x == "=")
                sawEquals = true;
            else if (x == ":" && parenOpen == 0)
                sawColon = true;  // bitfield width follows
            else if (t.kind == TokKind::Ident) {
                if (x == "operator")
                    isOperator = true;
                if (!sawEquals && !sawColon && parenOpen == 0) {
                    lastIdent = x;
                    lastIdentLine = t.line;
                }
            }
            ++pos_;
        }

        if (!inClass || parenOpen != 0 || lastIdent.empty() ||
            isOperator || !sawSemi)
            return;
        // A class-scope declaration with no parameter list: a data
        // member, unless the statement opened with a non-member
        // keyword (those were filtered in parseScope).
        out_.classes[classIdx].fields.push_back(
            {lastIdent, lastIdentLine});
    }

    /** Parse declarations until the matching '}' (or EOF). */
    void
    parseScope(bool inClass, std::size_t classIdx)
    {
        while (pos_ < code_.size()) {
            const Token &t = tok(pos_);
            const std::string &x = t.text;

            if (x == "}") {
                ++pos_;
                return;
            }
            if (x == ";" || x == ":") {
                ++pos_;
                continue;
            }
            if (t.kind == TokKind::Ident) {
                if (x == "namespace") {
                    ++pos_;
                    while (pos_ < code_.size() && text(pos_) != "{" &&
                           text(pos_) != ";" && text(pos_) != "=")
                        ++pos_;
                    if (pos_ < code_.size() && text(pos_) == "{") {
                        ++pos_;
                        parseScope(false, 0);
                    } else {
                        // alias or declaration: skip to ';'
                        while (pos_ < code_.size() && text(pos_) != ";")
                            ++pos_;
                    }
                    continue;
                }
                if (x == "template") {
                    ++pos_;
                    if (pos_ < code_.size() && text(pos_) == "<")
                        skipAngles();
                    continue;
                }
                if (x == "class" || x == "struct") {
                    ++pos_;
                    parseClassHead();
                    continue;
                }
                if (x == "enum") {
                    ++pos_;
                    if (isIdent(pos_, "class") ||
                        isIdent(pos_, "struct"))
                        ++pos_;
                    while (pos_ < code_.size() && text(pos_) != "{" &&
                           text(pos_) != ";")
                        ++pos_;
                    if (pos_ < code_.size() && text(pos_) == "{")
                        skipBalanced("{", "}");
                    while (pos_ < code_.size() && text(pos_) != ";")
                        ++pos_;
                    continue;
                }
                if (x == "union") {
                    ++pos_;
                    while (pos_ < code_.size() && text(pos_) != "{" &&
                           text(pos_) != ";")
                        ++pos_;
                    if (pos_ < code_.size() && text(pos_) == "{")
                        skipBalanced("{", "}");
                    continue;
                }
                if (x == "using" || x == "typedef" ||
                    x == "static_assert" || x == "friend" ||
                    x == "extern" || x == "asm") {
                    while (pos_ < code_.size() && text(pos_) != ";" &&
                           text(pos_) != "}")
                        ++pos_;
                    continue;
                }
                if (inClass && (x == "public" || x == "private" ||
                                x == "protected")) {
                    ++pos_;  // ':' consumed by the loop above
                    continue;
                }
                if (x == "static" || x == "constexpr" ||
                    x == "constinit" || x == "inline" ||
                    x == "thread_local" || x == "mutable") {
                    // Not serialisable state (static/constexpr) or a
                    // qualifier; 'mutable'/'inline' members still count
                    // as fields, so only the storage keywords skip the
                    // whole statement.
                    if (x == "static" || x == "constexpr" ||
                        x == "constinit" || x == "thread_local") {
                        while (pos_ < code_.size() &&
                               text(pos_) != ";" && text(pos_) != "}") {
                            if (text(pos_) == "{")
                                skipBalanced("{", "}");
                            else if (text(pos_) == "(")
                                skipBalanced("(", ")");
                            else
                                ++pos_;
                        }
                        continue;
                    }
                    ++pos_;  // 'inline' / 'mutable': qualifier only
                    continue;
                }
            }
            parseStatement(inClass, classIdx);
        }
    }

    FileSummary &out_;
    std::vector<const Token *> code_;
    std::size_t pos_ = 0;
};

} // namespace

std::uint64_t
lintFnv1a(const std::string &data)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

FileSummary
summarizeFile(const SourceFile &file)
{
    FileSummary out;
    out.path = file.path;
    out.suppressions = file.suppressions;

    // Resolve each directive's covered line now, while we still have
    // the token stream: a suppression on its own line covers the next
    // line that carries code; one trailing a code line covers that
    // line; allow-file covers the whole file (target 0).
    out.suppressionTargets.reserve(out.suppressions.size());
    for (const Suppression &sup : out.suppressions) {
        int target = sup.line;
        if (sup.wholeFile) {
            target = 0;
        } else if (sup.ownLine) {
            int next = 0;
            for (const Token &tok : file.tokens) {
                if (tok.line > sup.line && (next == 0 || tok.line < next))
                    next = tok.line;
            }
            target = next == 0 ? sup.line : next;
        }
        out.suppressionTargets.push_back(target);
    }

    // Project includes come from the raw (preprocessor) token stream.
    for (std::size_t i = 0; i + 2 < file.tokens.size(); ++i) {
        const Token &hash = file.tokens[i];
        if (hash.text != "#" || !hash.preproc)
            continue;
        if (file.tokens[i + 1].text != "include")
            continue;
        const Token &target = file.tokens[i + 2];
        if (target.kind != TokKind::String)
            continue;
        if (startsWith(target.text, "src/") ||
            startsWith(target.text, "tools/") ||
            startsWith(target.text, "bench/") ||
            startsWith(target.text, "examples/"))
            out.includes.push_back({hash.line, target.text});
    }

    Parser(file, out).run();

    // Classes with no fields carry no coverage obligations; drop them
    // to keep summaries (and the cache) small.
    out.classes.erase(
        std::remove_if(out.classes.begin(), out.classes.end(),
                       [](const ClassDecl &c) {
                           return c.fields.empty() || c.name.empty();
                       }),
        out.classes.end());
    return out;
}

int
layerRank(const std::string &path)
{
    static const struct
    {
        const char *prefix;
        int rank;
    } kLayers[] = {
        {"src/util/", 0},    {"src/lint/", 0},   {"src/sim/", 1},
        {"src/core/", 2},    {"src/machine/", 3}, {"src/os/", 4},
        {"src/workload/", 5}, {"src/metrics/", 6}, {"src/exp/", 8},
        {"src/config/", 8},  {"tools/", 9},      {"bench/", 9},
        {"examples/", 9},
    };
    for (const auto &l : kLayers) {
        if (startsWith(path, l.prefix))
            return l.rank;
    }
    // Files directly under src/ (simulation.hh/.cc, piso.hh) are the
    // facade layer between the library and the exp/config layer.
    if (startsWith(path, "src/") &&
        path.find('/', 4) == std::string::npos)
        return 7;
    return -1;
}

const char *
layerName(int rank)
{
    switch (rank) {
    case 0: return "util";
    case 1: return "sim";
    case 2: return "core";
    case 3: return "machine";
    case 4: return "os";
    case 5: return "workload";
    case 6: return "metrics";
    case 7: return "simulation";
    case 8: return "exp/config";
    case 9: return "tools";
    default: return "unranked";
    }
}

} // namespace piso::lint
