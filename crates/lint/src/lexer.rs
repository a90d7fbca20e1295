//! A minimal Rust lexer — just enough to scan the workspace's own
//! sources without being fooled by strings or comments.
//!
//! The passes in [`crate::passes`] work on token *shapes* (identifier
//! sequences, punctuation adjacency), so the lexer's job is narrow but
//! strict: classify every byte of a source file as code, comment, or
//! literal, and never misattribute one for another. The tricky corners
//! it must get right:
//!
//! * nested block comments (`/* /* */ */` is one comment);
//! * raw strings with arbitrary hash fences (`r##"…"##`), including the
//!   byte (`br"…"`) and C (`cr"…"`) variants;
//! * char literals vs. lifetimes (`'a'` is a literal, `'a` in
//!   `&'a str` is not — and `'\''` must not end the file early);
//! * escapes inside ordinary strings (`"\""` does not close early).
//!
//! Comments are kept (with their line spans) because two passes read
//! them: suppressions (`// lint:allow(...)`) and `// SAFETY:` audits.

/// What a token is, as coarsely as the passes need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `for`, `unsafe`, …).
    Ident,
    /// A lifetime (`'a`, `'static`) — distinct so it is never mistaken
    /// for a char literal or an identifier.
    Lifetime,
    /// Integer literal (`1`, `0x7F`, `1_000u64`).
    Int,
    /// Float literal (`0.85`, `1e-9`).
    Float,
    /// String / raw string / byte string literal.
    Str,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// One punctuation character, except `::` which is merged into a
    /// single token (path detection reads much better that way).
    Punct,
}

/// One lexed token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Coarse classification.
    pub kind: TokKind,
    /// The token's text, verbatim.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based column (in characters, not bytes).
    pub col: u32,
}

impl Tok {
    /// True when the token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when the token is the punctuation `s` (single char or `::`).
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// One comment (line or block) with the source lines it covers.
#[derive(Debug, Clone)]
pub struct Comment {
    /// First source line of the comment, 1-based.
    pub start_line: u32,
    /// Last source line (equals `start_line` for `//` comments).
    pub end_line: u32,
    /// The comment text, including its `//` or `/* */` markers.
    pub text: String,
}

impl Comment {
    /// True for doc comments (`///`, `//!`, `/**`, `/*!`). Doc comments
    /// *describe* lints (and may quote the suppression grammar), so the
    /// suppression parser only honors plain comments.
    pub fn is_doc(&self) -> bool {
        ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| self.text.starts_with(p))
    }
}

/// The result of lexing one file: code tokens plus the comment stream.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Lex `src` into tokens and comments. The lexer is total: any input
/// produces *some* tokenization (unterminated literals run to EOF), so
/// scanning never aborts on a syntactically broken fixture.
pub fn lex(src: &str) -> Lexed {
    Lexer::new(src).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    out: Lexed,
}

impl Lexer {
    fn new(src: &str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            out: Lexed::default(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string(line, col, String::new()),
                '\'' => self.char_or_lifetime(line, col),
                'r' | 'b' | 'c' if self.literal_prefix().is_some() => {
                    let prefix = self.literal_prefix().unwrap();
                    self.prefixed_literal(line, col, prefix);
                }
                // Raw identifier (`r#fn`, `r#unsafe`): one Ident token
                // whose text keeps the `r#` prefix, so it never matches
                // the keyword it escapes. Raw *strings* (`r#"…"`) were
                // already claimed by the literal-prefix arm above.
                'r' if self.peek(1) == Some('#') && self.peek(2).is_some_and(is_ident_start) => {
                    self.raw_ident(line, col);
                }
                c if is_ident_start(c) => self.ident(line, col),
                c if c.is_ascii_digit() => self.number(line, col),
                _ => self.punct(line, col),
            }
        }
        self.out
    }

    /// If the cursor sits on a literal prefix (`r"`, `r#"`, `b"`, `b'`,
    /// `br"`, `cr#"` …) return the prefix length; `None` means the `r`/
    /// `b`/`c` starts a plain identifier.
    fn literal_prefix(&self) -> Option<usize> {
        let mut i = 0;
        // Optional leading b or c, optional r, then the quote / fence.
        if matches!(self.peek(i), Some('b' | 'c')) {
            i += 1;
        }
        let raw = self.peek(i) == Some('r');
        if raw {
            i += 1;
            let mut j = i;
            while self.peek(j) == Some('#') {
                j += 1;
            }
            if self.peek(j) == Some('"') {
                return Some(i);
            }
            return None;
        }
        if i > 0 && matches!(self.peek(i), Some('"' | '\'')) {
            return Some(i);
        }
        None
    }

    /// A literal that starts with a prefix of `len` chars (`b`, `r`,
    /// `br`, `cr`…) — consume the prefix, then dispatch on what follows.
    fn prefixed_literal(&mut self, line: u32, col: u32, len: usize) {
        let mut text = String::new();
        for _ in 0..len {
            text.push(self.bump().expect("prefix chars exist"));
        }
        match self.peek(0) {
            Some('#' | '"') if text.ends_with('r') => self.raw_string(line, col, text),
            Some('"') => self.string(line, col, text),
            Some('\'') => self.char_literal(line, col, text),
            _ => unreachable!("literal_prefix guaranteed a quote"),
        }
    }

    fn line_comment(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment {
            start_line: line,
            end_line: line,
            text,
        });
    }

    fn block_comment(&mut self, line: u32) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.out.comments.push(Comment {
            start_line: line,
            end_line: self.line,
            text,
        });
    }

    /// Ordinary (escaped) string body; `text` holds any prefix (`b`…).
    fn string(&mut self, line: u32, col: u32, mut text: String) {
        text.push(self.bump().expect("opening quote"));
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '\\' {
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
            } else if c == '"' {
                break;
            }
        }
        self.push_tok(TokKind::Str, text, line, col);
    }

    /// Raw string: `r##"…"##` with however many hashes opened it.
    fn raw_string(&mut self, line: u32, col: u32, mut text: String) {
        let mut fence = 0usize;
        while self.peek(0) == Some('#') {
            fence += 1;
            text.push(self.bump().expect("fence hash"));
        }
        text.push(self.bump().expect("opening quote"));
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '"' {
                let mut k = 0;
                while k < fence && self.peek(k) == Some('#') {
                    k += 1;
                }
                if k == fence {
                    for _ in 0..fence {
                        text.push(self.bump().expect("closing hash"));
                    }
                    break;
                }
            }
        }
        self.push_tok(TokKind::Str, text, line, col);
    }

    /// `'` in code: disambiguate a char literal from a lifetime. A char
    /// literal either escapes (`'\n'`) or closes after exactly one
    /// character (`'a'`, `'{'`); anything else is a lifetime.
    fn char_or_lifetime(&mut self, line: u32, col: u32) {
        let is_char = match self.peek(1) {
            Some('\\') => true,
            Some(_) => self.peek(2) == Some('\''),
            None => false,
        };
        if is_char {
            self.char_literal(line, col, String::new());
        } else {
            let mut text = String::new();
            text.push(self.bump().expect("tick"));
            while let Some(c) = self.peek(0) {
                if is_ident_continue(c) {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push_tok(TokKind::Lifetime, text, line, col);
        }
    }

    fn char_literal(&mut self, line: u32, col: u32, mut text: String) {
        text.push(self.bump().expect("opening tick"));
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '\\' {
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
            } else if c == '\'' {
                break;
            }
        }
        self.push_tok(TokKind::Char, text, line, col);
    }

    fn ident(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push_tok(TokKind::Ident, text, line, col);
    }

    /// Raw identifier: consume `r#` then the identifier body, producing
    /// one Ident token whose text is `r#name` verbatim. Keeping the
    /// prefix means `r#unsafe` never satisfies `is_ident("unsafe")`.
    fn raw_ident(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        text.push(self.bump().expect("the r"));
        text.push(self.bump().expect("the hash"));
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push_tok(TokKind::Ident, text, line, col);
    }

    fn number(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        let mut has_dot = false;
        while let Some(c) = self.peek(0) {
            let radixed = text.starts_with("0x")
                || text.starts_with("0X")
                || text.starts_with("0b")
                || text.starts_with("0o");
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) && !has_dot {
                // `1.5` is a float; `1..n` and `x.1` are not this branch.
                has_dot = true;
                text.push(c);
                self.bump();
            } else if (c == '+' || c == '-') && text.ends_with(['e', 'E']) && !radixed {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        let radixed = text.starts_with("0x")
            || text.starts_with("0X")
            || text.starts_with("0b")
            || text.starts_with("0o");
        let float = has_dot || (!radixed && is_exponent_form(&text));
        let kind = if float { TokKind::Float } else { TokKind::Int };
        self.push_tok(kind, text, line, col);
    }

    fn punct(&mut self, line: u32, col: u32) {
        let c = self.bump().expect("punct char");
        if c == ':' && self.peek(0) == Some(':') {
            self.bump();
            self.push_tok(TokKind::Punct, "::".to_string(), line, col);
        } else {
            self.push_tok(TokKind::Punct, c.to_string(), line, col);
        }
    }

    fn push_tok(&mut self, kind: TokKind, text: String, line: u32, col: u32) {
        self.out.tokens.push(Tok {
            kind,
            text,
            line,
            col,
        });
    }
}

/// `1e9` / `1e-9` — an exponent float with no dot, as opposed to a
/// suffixed integer like `2usize` (whose `e` sits inside the suffix).
fn is_exponent_form(t: &str) -> bool {
    let Some(pos) = t.find(['e', 'E']) else {
        return false;
    };
    let (mant, rest) = t.split_at(pos);
    let exp = rest[1..].strip_prefix(['+', '-']).unwrap_or(&rest[1..]);
    let all_digits = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_digit() || c == '_');
    all_digits(mant) && all_digits(exp)
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Evaluate a constant integer expression over tokens `[start, end)`:
/// integer literals combined with `<<` and `|` (left-associative), which
/// covers every registry constant in the workspace (`1 << 40`,
/// `0x7F`, `A | B` is *not* supported across idents — the caller
/// resolves idents first). Returns `None` for anything else.
pub fn eval_const_expr(toks: &[Tok]) -> Option<u64> {
    let mut i = 0usize;
    let mut acc = parse_int(toks.get(i)?)?;
    i += 1;
    while i < toks.len() {
        if toks[i].is_punct("<") && toks.get(i + 1).is_some_and(|t| t.is_punct("<")) {
            let rhs = parse_int(toks.get(i + 2)?)?;
            acc = acc.checked_shl(u32::try_from(rhs).ok()?)?;
            i += 3;
        } else if toks[i].is_punct("|") {
            let rhs = parse_int(toks.get(i + 1)?)?;
            acc |= rhs;
            i += 2;
        } else {
            return None;
        }
    }
    Some(acc)
}

/// Parse one integer literal token (decimal, hex, octal, binary, with
/// `_` separators and an optional type suffix).
pub fn parse_int(tok: &Tok) -> Option<u64> {
    if tok.kind != TokKind::Int {
        return None;
    }
    let raw: String = tok.text.chars().filter(|&c| c != '_').collect();
    let (digits, radix) = if let Some(h) = raw.strip_prefix("0x").or(raw.strip_prefix("0X")) {
        (h, 16)
    } else if let Some(o) = raw.strip_prefix("0o") {
        (o, 8)
    } else if let Some(b) = raw.strip_prefix("0b") {
        (b, 2)
    } else {
        (raw.as_str(), 10)
    };
    // Strip a trailing type suffix (u8, u64, usize, i32 …).
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    if end == 0 {
        return None;
    }
    u64::from_str_radix(&digits[..end], radix).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Lexed {
        /// Comments that cover source line `line`.
        fn comments_covering(&self, line: u32) -> impl Iterator<Item = &Comment> {
            self.comments
                .iter()
                .filter(move |c| c.start_line <= line && line <= c.end_line)
        }
    }

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        let l = lex(r#"let x = "for unsafe in HashMap"; y"#);
        assert_eq!(
            idents(r#"let x = "for unsafe in HashMap"; y"#),
            ["let", "x", "y"]
        );
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Str).count(),
            1
        );
    }

    #[test]
    fn escaped_quote_does_not_close_string() {
        let ids = idents(r#"let s = "a \" unsafe"; tail"#);
        assert_eq!(ids, ["let", "s", "tail"]);
    }

    #[test]
    fn raw_strings_with_fences() {
        let src = "let s = r##\"unsafe \"# still inside\"##; after";
        assert_eq!(idents(src), ["let", "s", "after"]);
        let src2 = "let b = br#\"HashMap\"#; z";
        assert_eq!(idents(src2), ["let", "b", "z"]);
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* unsafe inner */ still comment */ b";
        assert_eq!(idents(src), ["a", "b"]);
        let l = lex(src);
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("inner"));
    }

    #[test]
    fn char_literal_with_brace_and_lifetime() {
        // '{' is a char literal, 'a in &'a str is a lifetime; neither
        // may unbalance brace matching or produce phantom tokens.
        let src = "fn f<'a>(x: &'a str) { let c = '{'; let d = '\\''; }";
        let l = lex(src);
        let braces: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.is_punct("{") || t.is_punct("}"))
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(braces, ["{", "}"]);
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            2
        );
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokKind::Lifetime)
                .count(),
            2
        );
    }

    #[test]
    fn byte_char_and_byte_string() {
        let src = "let a = b'x'; let s = b\"bytes\"; t";
        assert_eq!(idents(src), ["let", "a", "let", "s", "t"]);
    }

    #[test]
    fn line_comment_positions() {
        let src = "let a = 1; // lint:allow(x): reason\nlet b = 2;";
        let l = lex(src);
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].start_line, 1);
        assert!(l.comments[0].text.contains("lint:allow"));
    }

    #[test]
    fn double_colon_merges() {
        let l = lex("Rng::stream(seed, X)");
        assert!(l.tokens.iter().any(|t| t.is_punct("::")));
    }

    #[test]
    fn numbers_and_const_eval() {
        let l = lex("1 << 40");
        assert_eq!(eval_const_expr(&l.tokens), Some(1 << 40));
        let l = lex("0x7F");
        assert_eq!(eval_const_expr(&l.tokens), Some(0x7F));
        let l = lex("3 << 40 | 7");
        assert_eq!(eval_const_expr(&l.tokens), Some((3 << 40) | 7));
        let l = lex("1_000u64");
        assert_eq!(eval_const_expr(&l.tokens), Some(1000));
        let l = lex("n << 2");
        assert_eq!(eval_const_expr(&l.tokens), None);
    }

    #[test]
    fn floats_are_not_ints() {
        let l = lex("0.85 1e-9 2.5e+3");
        assert!(l.tokens.iter().all(|t| t.kind == TokKind::Float));
    }

    #[test]
    fn range_dots_do_not_make_floats() {
        let l = lex("for i in 0..10 {}");
        let ints: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Int)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ints, ["0", "10"]);
    }

    #[test]
    fn unterminated_literals_run_to_eof() {
        // Total lexing: broken inputs still produce a tokenization.
        let l = lex("let s = \"never closed");
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Str).count(),
            1
        );
        let l = lex("/* never closed");
        assert_eq!(l.comments.len(), 1);
    }

    #[test]
    fn comments_covering_reports_block_spans() {
        let l = lex("/* one\ntwo\nthree */ code");
        assert!(l.comments_covering(2).next().is_some());
        assert!(l.comments_covering(4).next().is_none());
    }

    #[test]
    fn raw_identifiers_are_single_tokens_and_not_keywords() {
        // `r#fn` / `r#unsafe` are identifiers, not an `r`, a `#`, and a
        // keyword — mis-lexing them would fabricate S1/P1 findings.
        let l = lex("fn r#fn() { r#unsafe + r#match }");
        let ids = idents("fn r#fn() { r#unsafe + r#match }");
        assert_eq!(ids, ["fn", "r#fn", "r#unsafe", "r#match"]);
        assert!(!l.tokens.iter().any(|t| t.is_ident("unsafe")));
        assert!(!l.tokens.iter().any(|t| t.is_punct("#")));
        // A raw *string* with the same leading bytes still lexes as Str.
        let l2 = lex("r#\"fn unsafe\"#");
        assert_eq!(
            l2.tokens.iter().filter(|t| t.kind == TokKind::Str).count(),
            1
        );
        assert!(l2.tokens.iter().all(|t| t.kind != TokKind::Ident));
    }

    #[test]
    fn nested_turbofish_before_call_parens() {
        // `collect::<Vec<Vec<u64>>>(…)` — the `>>` at the end must lex
        // as two `>` puncts so angle depth balances before the `(`.
        let l = lex("xs.iter().collect::<Vec<Vec<u64>>>()");
        let mut depth = 0i32;
        let mut paren_at_zero = false;
        for t in &l.tokens {
            if t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(">") {
                depth -= 1;
            } else if t.is_punct("(") && t.col > 30 {
                paren_at_zero = depth == 0;
            }
        }
        assert_eq!(depth, 0);
        assert!(paren_at_zero);
    }

    #[test]
    fn line_comment_at_eof_without_newline() {
        let l = lex("let a = 1; // trailing comment no newline");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].start_line, 1);
        assert_eq!(l.comments[0].end_line, 1);
        assert_eq!(l.comments[0].text, "// trailing comment no newline");
        assert_eq!(idents("x // eof"), ["x"]);
    }
}
