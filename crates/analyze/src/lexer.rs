//! A minimal Rust lexer: just enough token structure for the lints in
//! [`crate::lints`], with no dependency on `syn` or the compiler.
//!
//! The lexer's one hard job is *not* reporting phantom findings from
//! comments, doc comments, and string literals — `// don't unwrap() here`
//! must produce zero tokens. Everything that is not a comment, string,
//! char, lifetime, number, or identifier comes out as a single-character
//! [`Tok::Punct`]; the lints match multi-character operators (`::`, `#[`)
//! as punct sequences.

/// One lexed token. Literal *content* is deliberately dropped: the lints
/// only care that a literal occupies the slot (so `"Vec::new"` in a string
/// can never match the `Vec :: new` ident pattern).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `Vec`, `unwrap`, ...).
    Ident(String),
    /// Single punctuation character (`.`, `:`, `!`, `{`, ...).
    Punct(char),
    /// String, raw-string, byte-string, char, or numeric literal.
    Lit,
    /// Lifetime such as `'a` or `'static` (distinct from a char literal).
    Lifetime,
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

impl Token {
    /// The identifier text, or `None` for non-ident tokens.
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Cursor<'a> {
    chars: std::str::Chars<'a>,
    line: u32,
}

impl Cursor<'_> {
    fn peek(&self) -> Option<char> {
        self.chars.clone().next()
    }

    fn peek2(&self) -> Option<char> {
        let mut it = self.chars.clone();
        it.next();
        it.next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        if c == Some('\n') {
            self.line += 1;
        }
        c
    }

    fn eat_while(&mut self, pred: impl Fn(char) -> bool) {
        while self.peek().is_some_and(&pred) {
            self.bump();
        }
    }

    /// Skip a `//` line comment (doc comments included); the cursor is
    /// positioned after the second `/`.
    fn skip_line_comment(&mut self) {
        self.eat_while(|c| c != '\n');
    }

    /// Skip a `/* ... */` block comment with nesting; the cursor is
    /// positioned after the `*`.
    fn skip_block_comment(&mut self) {
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump() {
                Some('/') if self.peek() == Some('*') => {
                    self.bump();
                    depth += 1;
                }
                Some('*') if self.peek() == Some('/') => {
                    self.bump();
                    depth -= 1;
                }
                Some(_) => {}
                None => return, // unterminated; tolerate at EOF
            }
        }
    }

    /// Skip a normal `"..."` string body (opening quote already consumed),
    /// honoring `\"` and `\\` escapes.
    fn skip_string(&mut self) {
        loop {
            match self.bump() {
                Some('\\') => {
                    self.bump();
                }
                Some('"') | None => return,
                Some(_) => {}
            }
        }
    }

    /// Skip a raw string `r##"..."##` given the number of `#` marks; the
    /// cursor is positioned after the opening `"`.
    fn skip_raw_string(&mut self, hashes: usize) {
        loop {
            match self.bump() {
                Some('"') => {
                    let mut it = self.chars.clone();
                    if (0..hashes).all(|_| it.next() == Some('#')) {
                        for _ in 0..hashes {
                            self.bump();
                        }
                        return;
                    }
                }
                None => return,
                Some(_) => {}
            }
        }
    }

    /// Skip a char literal body (opening `'` already consumed).
    fn skip_char_literal(&mut self) {
        loop {
            match self.bump() {
                Some('\\') => {
                    self.bump();
                }
                Some('\'') | None => return,
                Some(_) => {}
            }
        }
    }

    /// Consume a numeric literal whose first digit was already bumped.
    /// Loose on purpose: suffixes, hex digits, and bare exponents are all
    /// eaten as part of the literal, but `..` range punctuation is left
    /// alone and a signed exponent (`1e-3`) splits into literal/punct/
    /// literal — harmless for the lints, which never inspect literals.
    fn skip_number(&mut self) {
        self.eat_while(|c| c.is_ascii_alphanumeric() || c == '_');
        if self.peek() == Some('.') && self.peek2().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
            self.eat_while(|c| c.is_ascii_alphanumeric() || c == '_');
        }
    }
}

/// Lex `src` into a token stream. Comments and whitespace vanish; string,
/// char, and numeric literals collapse to [`Tok::Lit`].
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor { chars: src.chars(), line: 1 };
    let mut out = Vec::new();
    while let Some(c) = cur.peek() {
        let line = cur.line;
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        if c == '/' {
            match cur.peek2() {
                Some('/') => {
                    cur.bump();
                    cur.bump();
                    cur.skip_line_comment();
                    continue;
                }
                Some('*') => {
                    cur.bump();
                    cur.bump();
                    cur.skip_block_comment();
                    continue;
                }
                _ => {}
            }
        }
        if c == '"' {
            cur.bump();
            cur.skip_string();
            out.push(Token { tok: Tok::Lit, line });
            continue;
        }
        if c == '\'' {
            cur.bump();
            // `'a'` is a char literal; `'a` / `'static` is a lifetime. The
            // discriminator is whether a closing quote follows one ident
            // char (escapes always mean char literal).
            match cur.peek() {
                Some(n) if is_ident_start(n) && cur.peek2() != Some('\'') => {
                    cur.eat_while(is_ident_continue);
                    out.push(Token { tok: Tok::Lifetime, line });
                }
                _ => {
                    cur.skip_char_literal();
                    out.push(Token { tok: Tok::Lit, line });
                }
            }
            continue;
        }
        if c.is_ascii_digit() {
            cur.bump();
            cur.skip_number();
            out.push(Token { tok: Tok::Lit, line });
            continue;
        }
        if is_ident_start(c) {
            let mut ident = String::new();
            while cur.peek().is_some_and(is_ident_continue) {
                if let Some(ch) = cur.bump() {
                    ident.push(ch);
                }
            }
            // String-literal prefixes: r"..", r#".."#, b"..", br"..".
            match (ident.as_str(), cur.peek()) {
                ("r" | "b" | "br" | "rb", Some('"')) => {
                    cur.bump();
                    if ident.starts_with('r') || ident.ends_with('r') {
                        cur.skip_raw_string(0);
                    } else {
                        cur.skip_string();
                    }
                    out.push(Token { tok: Tok::Lit, line });
                    continue;
                }
                ("r" | "br" | "rb", Some('#')) => {
                    let mut it = cur.chars.clone();
                    let mut hashes = 0usize;
                    while it.clone().next() == Some('#') {
                        it.next();
                        hashes += 1;
                    }
                    if it.next() == Some('"') {
                        for _ in 0..=hashes {
                            cur.bump(); // the hashes and the opening quote
                        }
                        cur.skip_raw_string(hashes);
                        out.push(Token { tok: Tok::Lit, line });
                        continue;
                    }
                    // `r#ident` raw identifier: drop the `r`, lex the ident.
                    cur.bump(); // '#'
                    let mut raw = String::new();
                    while cur.peek().is_some_and(is_ident_continue) {
                        if let Some(ch) = cur.bump() {
                            raw.push(ch);
                        }
                    }
                    out.push(Token { tok: Tok::Ident(raw), line });
                    continue;
                }
                _ => {}
            }
            out.push(Token { tok: Tok::Ident(ident), line });
            continue;
        }
        cur.bump();
        out.push(Token { tok: Tok::Punct(c), line });
    }
    out
}
