//! Symbol resolution over the token stream from [`crate::lexer`], in one
//! walk per file ([`find_defs`]): every function definition (free
//! functions, inherent and trait-impl methods, trait default methods), the
//! call sites inside each body, and the lock-acquisition regions the L5
//! lint reasons about. The same walk hands the lint pass each token's
//! innermost definition and test scope.
//!
//! Resolution is deliberately *conservative and syntactic* — there is no
//! type information (no `syn`, no compiler). A method call matches every
//! workspace method of that name unless a receiver hint narrows the
//! candidate set; an unresolvable callee is surfaced as a **frontier**
//! edge by [`crate::graph`] rather than silently dropped, so the
//! analysis over-approximates reachability instead of missing it.

use crate::lexer::{Tok, Token};
use crate::lints::Finding;

/// A function definition discovered in a file.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// The type this function is defined on: `impl Ty` / `impl Tr for Ty`
    /// both record `Ty`; a trait declaration's default method records the
    /// trait name. `None` for free functions.
    pub owner: Option<String>,
    /// The trait being implemented (`impl Tr for Ty` → `Tr`), or the
    /// declaring trait for a default method.
    pub trait_name: Option<String>,
    pub file: String,
    pub line: u32,
    /// Token range of the body: `[open brace, one past close brace)`.
    pub body: (usize, usize),
    /// Defined under `#[cfg(test)]` / `#[test]`.
    pub is_test: bool,
    /// Call sites, blocking ops and lock regions of the body. Closures
    /// count toward the enclosing function, a nested named function
    /// toward itself.
    pub calls: Vec<CallSite>,
    pub blocking: Vec<BlockingOp>,
    pub locks: Vec<LockRegion>,
    /// L1 constructs of the body, filed by the lint pass under the same
    /// attribution; the workspace pass keeps those of hot definitions.
    pub alloc_sites: Vec<Finding>,
}

impl FnDef {
    /// `Owner::name` or bare `name`, for reports.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `foo(..)` — a free function (or a local closure, which resolution
    /// cannot distinguish; unresolved names become frontier edges).
    Free { name: String },
    /// `recv.foo(..)` — a method call; `hint` is the receiver-chain ident
    /// closest to the call (`self.shared.lock()` → `shared`), used to
    /// narrow same-named candidates by type-name similarity.
    Method { name: String, hint: Option<String> },
    /// `Ty::foo(..)` or a bare `Ty::foo` function reference.
    Path { ty: String, name: String },
}

impl Callee {
    /// The bare callee name.
    pub fn name(&self) -> &str {
        match self {
            Callee::Free { name } | Callee::Method { name, .. } | Callee::Path { name, .. } => name,
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub callee: Callee,
    pub line: u32,
    /// Token index of the callee name (used to place the call inside or
    /// outside lock regions).
    pub tok: usize,
}

/// One blocking-primitive invocation (`recv`/`send`/`wait`/`join`…).
#[derive(Debug, Clone)]
pub struct BlockingOp {
    pub op: String,
    pub line: u32,
    pub tok: usize,
    /// Idents appearing in the call's argument list — a `Condvar::wait`
    /// that is *passed* the held guard releases it atomically, so such a
    /// wait is exempt for that guard's region.
    pub args: Vec<String>,
}

/// A lock acquisition and the token span its guard stays live for.
#[derive(Debug, Clone)]
pub struct LockRegion {
    /// Lock identity: the receiver ident of `.lock()` (`results.lock()`
    /// → `results`) or the suffix of a `lock_*` guard-returning helper
    /// (`lock_results()` → `results`).
    pub lock: String,
    pub line: u32,
    /// The guard's `let` binding, when the acquisition is bound.
    pub binding: Option<String>,
    /// Token span `[acquisition, release)` the guard is held for.
    pub span: (usize, usize),
}

/// Keywords that can be followed by `(` without being calls.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "while"
            | "for"
            | "in"
            | "match"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "move"
            | "as"
            | "where"
            | "unsafe"
            | "await"
            | "fn"
            | "impl"
            | "dyn"
            | "pub"
            | "use"
            | "mod"
            | "ref"
            | "mut"
            | "const"
            | "static"
    )
}

/// `impl`/`trait` context captured while walking a file.
#[derive(Debug, Clone)]
struct OwnerCtx {
    owner: Option<String>,
    trait_name: Option<String>,
    /// Brace depth of the context's block body.
    depth: u32,
}

/// Parse the header of an `impl` item starting at `toks[i]` (the `impl`
/// ident). Returns `(index of the opening brace, owner type, trait)`;
/// `impl Tr for Ty` yields owner `Ty` and trait `Tr`, `impl Ty` yields
/// owner `Ty` and no trait. Generic parameters and paths collapse to
/// their final segment.
fn parse_impl_header(toks: &[Token], i: usize) -> (usize, Option<String>, Option<String>) {
    let mut j = i + 1;
    let (mut angle, mut brackets) = (0i32, 0i32);
    let mut first: Option<String> = None;
    let mut second: Option<String> = None;
    let mut saw_for = false;
    let mut saw_where = false;
    while let Some(t) = toks.get(j) {
        match &t.tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Punct('[') => brackets += 1,
            Tok::Punct(']') => brackets -= 1,
            Tok::Punct('{') => {
                let (owner, trait_name) = if saw_for { (second, first) } else { (first, None) };
                return (j, owner, trait_name);
            }
            // `impl Trait for Ty;`-like degenerate; `[u8; 2]` is a type.
            Tok::Punct(';') if brackets == 0 => return (j, None, None),
            Tok::Ident(s) if angle == 0 && !saw_where => {
                if s == "for" {
                    saw_for = true;
                } else if s == "where" {
                    saw_where = true; // bounds follow; types already captured
                } else if saw_for {
                    second = Some(s.clone()); // last path segment wins
                } else {
                    first = Some(s.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    (toks.len(), None, None)
}

/// Scan an attribute starting at `toks[i]` (`#`). Returns the index past
/// the closing `]` and whether it marks test code (`test` present and
/// `not` absent, so `#[cfg(not(test))]` stays live).
fn scan_attr(toks: &[Token], i: usize) -> (usize, bool) {
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.is_punct('!')) {
        j += 1;
    }
    if !toks.get(j).is_some_and(|t| t.is_punct('[')) {
        return (i + 1, false);
    }
    let mut brackets = 0i32;
    let (mut has_test, mut has_not) = (false, false);
    while let Some(t) = toks.get(j) {
        match &t.tok {
            Tok::Punct('[') => brackets += 1,
            Tok::Punct(']') => {
                brackets -= 1;
                if brackets == 0 {
                    return (j + 1, has_test && !has_not);
                }
            }
            Tok::Ident(s) if s == "test" => has_test = true,
            Tok::Ident(s) if s == "not" => has_not = true,
            _ => {}
        }
        j += 1;
    }
    (toks.len(), false)
}

/// A function definition in mid-flight during the walk, with the state
/// its facts need while the body is open.
struct OpenDef {
    def: FnDef,
    /// Brace depth of the body block.
    depth: u32,
    /// First token of the current statement (where a guard's `let` is).
    stmt_start: usize,
    /// Live guards: `(index into def.locks, brace depth at acquisition)`.
    open_locks: Vec<(usize, u32)>,
}

impl OpenDef {
    /// End, at token `at`, every live guard `dies` selects.
    fn release(&mut self, at: usize, dies: impl Fn(&LockRegion, u32) -> bool) {
        let locks = &mut self.def.locks;
        self.open_locks.retain(|&(li, ld)| {
            let dead = dies(&locks[li], ld);
            if dead {
                locks[li].span.1 = at;
            }
            !dead
        });
    }

    /// File token `i`, at brace depth `depth`, under this body: its call
    /// site, blocking op or lock acquisition, and the guards it ends.
    fn file_token(&mut self, toks: &[Token], i: usize, depth: u32) {
        let t = &toks[i];
        match &t.tok {
            Tok::Punct('{') => self.stmt_start = i + 1,
            Tok::Punct('}') => {
                // Guards die with their enclosing block.
                self.release(i, |_, ld| ld >= depth);
                self.stmt_start = i + 1;
            }
            Tok::Punct(';') => {
                // Unbound guard temporaries die at end of statement.
                self.release(i, |l, ld| ld == depth && l.binding.is_none());
                self.stmt_start = i + 1;
            }
            Tok::Ident(name) => {
                // An ident of a body always follows the body's `{`.
                let prev_dot = toks[i - 1].is_punct('.');
                let next_paren = toks.get(i + 1).is_some_and(|t| t.is_punct('('));
                // `drop(guard)` releases a bound guard early.
                if name == "drop" && !prev_dot && next_paren {
                    let args = paren_idents(toks, i + 1);
                    self.release(i, |l, _| {
                        l.binding.as_deref().is_some_and(|b| args.iter().any(|a| a == b))
                    });
                }
                // Lock acquisition: `recv.lock()` or a `lock_*` helper.
                let lock_id = if name == "lock" && prev_dot && next_paren {
                    i.checked_sub(2)
                        .and_then(|j| toks[j].ident())
                        .map(str::to_string)
                        .or_else(|| Some("lock".to_string()))
                } else if let Some(suffix) = name.strip_prefix("lock_") {
                    if next_paren && !suffix.is_empty() {
                        Some(suffix.to_string())
                    } else {
                        None
                    }
                } else {
                    None
                };
                if let Some(lock) = lock_id {
                    // The guard's binding: `let [mut] NAME = …` at the
                    // head of the current statement.
                    let binding = match toks.get(self.stmt_start).and_then(Token::ident) {
                        Some("let") => {
                            let mut j = self.stmt_start + 1;
                            if toks.get(j).and_then(Token::ident) == Some("mut") {
                                j += 1;
                            }
                            toks.get(j).and_then(Token::ident).map(str::to_string)
                        }
                        _ => None,
                    };
                    // Held to the end of the file unless its block, its
                    // statement or a `drop` ends it first.
                    let span = (i, toks.len());
                    self.def.locks.push(LockRegion { lock, line: t.line, binding, span });
                    self.open_locks.push((self.def.locks.len() - 1, depth));
                }
                // Blocking primitives (method position only).
                if prev_dot && next_paren && is_blocking_name(name) {
                    self.def.blocking.push(BlockingOp {
                        op: name.clone(),
                        line: t.line,
                        tok: i,
                        args: paren_idents(toks, i + 1),
                    });
                }
                if let Some(site) = call_site_at(toks, i) {
                    self.def.calls.push(site);
                }
            }
            _ => {}
        }
    }
}

/// The analyzer's one per-token walk. It finds every function definition
/// (body span, owner context, test-scope flag) and files each token of a
/// body under the innermost open definition: calls, blocking ops and lock
/// regions. Attributes are skipped — they are not code. Every other token
/// goes to `visit` with its innermost open definition and whether it lies
/// in a `#[cfg(test)]` / `#[test]` block: the lint pass's per-token checks.
/// Brace depth, test scope, the pending `fn` name and the `[usize; 4]`
/// bracket rule are tracked here and nowhere else. The definitions come
/// back sorted by body start.
pub fn find_defs(
    file: &str,
    toks: &[Token],
    mut visit: impl FnMut(usize, Option<&mut FnDef>, bool),
) -> Vec<FnDef> {
    let mut defs = Vec::new();
    let mut open: Vec<OpenDef> = Vec::new();
    let mut owners: Vec<OwnerCtx> = Vec::new();
    let mut depth: u32 = 0;
    // Brace depth of the outermost enclosing test block.
    let mut test_depth: Option<u32> = None;
    let mut pending_test = false;
    // `(name, line)` of a `fn` whose body has not opened yet.
    let mut pending_fn: Option<(String, u32)> = None;
    // An `impl` / `trait` header ends at token `header_end`. Its tokens
    // are code (filed and visited) but not structure; `pending_owner`
    // opens at the block's brace.
    let mut header_end = 0usize;
    let mut pending_owner: Option<(Option<String>, Option<String>)> = None;
    let mut expect_fn_name = false;
    // `[`-nesting: a `;` inside an array type (`[usize; 4]`) or array
    // expression is not a statement terminator and must not cancel a
    // pending fn between its signature and its body.
    let mut brackets = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('#') {
            let (next_i, is_test) = scan_attr(toks, i);
            if next_i > i + 1 {
                pending_test |= is_test;
                i = next_i;
                continue;
            }
        }
        let structural = i >= header_end;
        // A block opens before its `{` is filed and visited, and closes
        // after its `}` is: both braces belong to the block.
        if structural && t.is_punct('{') {
            depth += 1;
            if std::mem::take(&mut pending_test) && test_depth.is_none() {
                test_depth = Some(depth);
            }
            if let Some((owner, trait_name)) = pending_owner.take() {
                owners.push(OwnerCtx { owner, trait_name, depth });
            }
            if let Some((name, line)) = pending_fn.take() {
                let ctx = owners.last();
                let def = FnDef {
                    name,
                    owner: ctx.and_then(|c| c.owner.clone()),
                    trait_name: ctx.and_then(|c| c.trait_name.clone()),
                    file: file.to_string(),
                    line,
                    body: (i, i + 1), // end patched at close
                    is_test: test_depth.is_some(),
                    calls: Vec::new(),
                    blocking: Vec::new(),
                    locks: Vec::new(),
                    alloc_sites: Vec::new(),
                };
                open.push(OpenDef { def, depth, stmt_start: i + 1, open_locks: Vec::new() });
            }
        }
        let in_test = test_depth.is_some();
        match open.last_mut() {
            Some(o) => {
                o.file_token(toks, i, depth);
                visit(i, Some(&mut o.def), in_test);
            }
            None => visit(i, None, in_test),
        }
        if !structural {
            i += 1;
            continue;
        }
        match &t.tok {
            Tok::Ident(s) if (s == "impl" || s == "trait") && pending_fn.is_none() => {
                // Guarded on `pending_fn`: `impl` between a function's
                // name and its body (`-> impl Iterator`, `x: impl Fn()`)
                // is a type position, not an item header.
                let (brace, owner, trait_name) = if s == "trait" {
                    // `trait Name { … }`: the name is the next ident; the
                    // block may declare default methods (owner = trait).
                    // The header ends at its `{` or `;`; `[u8; 2]` is a type.
                    let name = toks.get(i + 1).and_then(Token::ident).map(str::to_string);
                    let (mut j, mut brackets) = (i + 1, 0i32);
                    while let Some(t) = toks.get(j) {
                        match t.tok {
                            Tok::Punct('{') => break,
                            Tok::Punct(';') if brackets == 0 => break,
                            Tok::Punct('[') => brackets += 1,
                            Tok::Punct(']') => brackets -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    (j, name.clone(), name)
                } else {
                    parse_impl_header(toks, i)
                };
                header_end = brace;
                if toks.get(brace).is_some_and(|t| t.is_punct('{')) {
                    pending_owner = Some((owner, trait_name));
                }
            }
            Tok::Punct('}') => {
                if test_depth == Some(depth) {
                    test_depth = None;
                }
                if open.last().map(|o| o.depth) == Some(depth) {
                    if let Some(mut done) = open.pop() {
                        done.def.body.1 = i + 1;
                        defs.push(done.def);
                    }
                }
                if owners.last().map(|o| o.depth) == Some(depth) {
                    owners.pop();
                }
                depth = depth.saturating_sub(1);
            }
            Tok::Punct('[') => brackets += 1,
            Tok::Punct(']') => brackets -= 1,
            Tok::Punct(';') if brackets == 0 => {
                pending_test = false;
                pending_fn = None;
            }
            Tok::Ident(s) if s == "fn" => {
                expect_fn_name = true;
                i += 1;
                continue;
            }
            Tok::Ident(name) if expect_fn_name => {
                pending_fn = Some((name.clone(), t.line));
                expect_fn_name = false;
            }
            _ => {}
        }
        if expect_fn_name && t.ident().is_none() {
            expect_fn_name = false; // `fn(` pointer type
        }
        i += 1;
    }
    // Close unterminated blocks at EOF (tolerated, like the lexer).
    while let Some(mut o) = open.pop() {
        o.def.body.1 = toks.len();
        defs.push(o.def);
    }
    defs.sort_by_key(|d| d.body.0);
    defs
}

/// Blocking primitives for the L5 lock lint: calls that can park the
/// thread indefinitely while a held lock starves every peer.
pub fn is_blocking_name(name: &str) -> bool {
    matches!(name, "recv" | "send" | "wait" | "join" | "recv_timeout" | "wait_timeout")
}

/// Collect idents inside the parenthesized argument list that starts at
/// `toks[open]` (which must be `(`).
fn paren_idents(toks: &[Token], open: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut bal = 0i32;
    let mut j = open;
    while let Some(t) = toks.get(j) {
        match &t.tok {
            Tok::Punct('(') => bal += 1,
            Tok::Punct(')') => {
                bal -= 1;
                if bal == 0 {
                    break;
                }
            }
            Tok::Ident(s) => out.push(s.clone()),
            _ => {}
        }
        j += 1;
    }
    out
}

/// Classify the token at `i` as a call site, if it is one.
fn call_site_at(toks: &[Token], i: usize) -> Option<CallSite> {
    let name = toks[i].ident()?;
    if is_keyword(name) {
        return None;
    }
    let next = toks.get(i + 1);
    let next_paren = next.is_some_and(|t| t.is_punct('('));
    let next_bang = next.is_some_and(|t| t.is_punct('!'));
    if next_bang {
        return None; // macros are matched by the construct lints, not the graph
    }
    let prev = |k: usize| i.checked_sub(k).map(|j| &toks[j]);
    if prev(1).and_then(Token::ident) == Some("fn") {
        return None; // a nested `fn name(` declares, it does not call
    }
    let after_dot = prev(1).is_some_and(|t| t.is_punct('.'));
    let after_path =
        prev(1).is_some_and(|t| t.is_punct(':')) && prev(2).is_some_and(|t| t.is_punct(':'));
    let uppercase = name.chars().next().is_some_and(char::is_uppercase);
    let line = toks[i].line;
    if after_dot && next_paren {
        // `recv.name(..)`: hint is the ident before the dot; a `self`
        // receiver is resolved by the caller against its own impl type.
        let hint = prev(2).and_then(Token::ident).map(str::to_string);
        return Some(CallSite {
            callee: Callee::Method { name: name.to_string(), hint },
            line,
            tok: i,
        });
    }
    if after_path {
        // `Ty::name(..)` call or bare `Ty::name` function reference
        // (e.g. `.map(Job::samples)`). Uppercase names are enum variants
        // or tuple-struct constructors (`Slot::Done(..)`), never fns.
        let ty = prev(3).and_then(Token::ident)?;
        if uppercase {
            return None;
        }
        // Skip deeper paths' middle segments (`a::b::c` matches only `c`).
        if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            return None;
        }
        if ty.chars().next().is_some_and(char::is_uppercase) || ty == "self" {
            return Some(CallSite {
                callee: Callee::Path { ty: ty.to_string(), name: name.to_string() },
                line,
                tok: i,
            });
        }
        // `module::func(..)`: treat as a free-function call by name.
        if next_paren {
            return Some(CallSite {
                callee: Callee::Free { name: name.to_string() },
                line,
                tok: i,
            });
        }
        return None;
    }
    if next_paren && !uppercase {
        // Plain `name(..)` — free function (or a local closure; unresolved
        // names surface as frontier edges).
        return Some(CallSite { callee: Callee::Free { name: name.to_string() }, line, tok: i });
    }
    None
}
