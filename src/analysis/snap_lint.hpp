// MB-SNP-005, the source-level snapshot rule the runtime gates do not cover
// (`mbstatic`, DESIGN.md §12): a load path that sizes a counted loop or a
// resize/reserve from a raw u32/u64 read, with no fail() guard in the same
// body. A corrupt snapshot whose section CRCs still check reaches that load
// with any count it likes and drives an unbounded allocation; a count read
// through Reader::count() is bounded by the bytes left in the section. The
// restore tests only feed loads the bytes a save wrote, so no runtime test
// reaches this path.
//
// Lexical and heuristic, like its front end (analysis/cxx_lexer.hpp): a
// load*(…Reader& r…) definition is scanned for `x = r.u32()` / `x = r.u64()`
// followed by a counted `for` or a resize/reserve that names x. Any
// `r.fail()` in the body counts as a guard, wherever it stands.
#pragma once

#include <vector>

#include "analysis/cxx_lexer.hpp"
#include "analysis/diagnostic.hpp"

namespace mb::analysis {

/// Report every MB-SNP-005 finding in `files` to `engine`, sorted by
/// (file, line, code).
void lintLoadLengths(const std::vector<SourceFile>& files, DiagnosticEngine& engine);

}  // namespace mb::analysis
