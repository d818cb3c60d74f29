//! A lightweight Rust tokenizer for lint rules.
//!
//! Token-level scanning is the robustness sweet spot for this kind of
//! lint: plain text/regex matching misfires inside strings and
//! comments ("a doc comment mentioning `unwrap()`"), while a full
//! parser is a dependency the offline build cannot take. The lexer
//! understands exactly what is needed to never misclassify code:
//! line and nested block comments (captured, so the safety-comment
//! rule can read them), string/char/byte/raw-string literals,
//! lifetimes vs char literals, identifiers, and punctuation.

/// What a token is; only the distinctions the rules need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// Single punctuation character.
    Punct(char),
    /// Comment (line or block), with its full text.
    Comment(String),
    /// String/char/byte literal (contents irrelevant to the rules).
    Literal,
    /// Numeric literal, with its source text (the overflow/division
    /// rules need to distinguish `0`, nonzero, and float literals).
    Num(String),
    /// A lifetime such as `'a` (distinct from a char literal).
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Kind and payload.
    pub kind: TokKind,
    /// 1-based line of the token's first character.
    pub line: u32,
}

/// The identifier or keyword `tok` spells, if it is one.
pub fn ident(tok: &Token) -> Option<&str> {
    match &tok.kind {
        TokKind::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

/// True when `tok` is the punctuation character `c`.
pub fn is_punct(tok: &Token, c: char) -> bool {
    tok.kind == TokKind::Punct(c)
}

/// Index of the first token at or after `i` that is not a comment.
pub fn next_code(toks: &[Token], mut i: usize) -> Option<usize> {
    while i < toks.len() {
        if !matches!(toks[i].kind, TokKind::Comment(_)) {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Index of the last token before `i` that is not a comment.
pub fn prev_code(toks: &[Token], i: usize) -> Option<usize> {
    (0..i)
        .rev()
        .find(|&j| !matches!(toks[j].kind, TokKind::Comment(_)))
}

/// Index of the `(` or `[` that opens the group whose `)` or `]` is at
/// `close`, found by walking back (0 when the group never opens).
pub fn group_start(toks: &[Token], close: usize) -> usize {
    let (open, shut) = if is_punct(&toks[close], ')') {
        ('(', ')')
    } else {
        ('[', ']')
    };
    let mut depth = 1usize;
    let mut i = close;
    while depth > 0 && i > 0 {
        i -= 1;
        if is_punct(&toks[i], shut) {
            depth += 1;
        } else if is_punct(&toks[i], open) {
            depth -= 1;
        }
    }
    i
}

/// Tokenize `src`. Unterminated constructs consume to end of input
/// rather than erroring: the lint runs on code rustc already accepted,
/// so graceful degradation beats failure.
pub fn tokenize(src: &str) -> Vec<Token> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;

    let count_lines = |s: &[char]| s.iter().filter(|&&c| c == '\n').count() as u32;

    while i < chars.len() {
        let c = chars[i];
        let start_line = line;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let end = chars[i..]
                    .iter()
                    .position(|&c| c == '\n')
                    .map(|p| i + p)
                    .unwrap_or(chars.len());
                toks.push(Token {
                    kind: TokKind::Comment(chars[i..end].iter().collect()),
                    line: start_line,
                });
                i = end;
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let mut depth = 1;
                let mut j = i + 2;
                while j < chars.len() && depth > 0 {
                    if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 2;
                    } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                line += count_lines(&chars[i..j]);
                toks.push(Token {
                    kind: TokKind::Comment(chars[i..j].iter().collect()),
                    line: start_line,
                });
                i = j;
            }
            '"' => {
                let j = scan_string(&chars, i + 1);
                line += count_lines(&chars[i..j]);
                toks.push(Token {
                    kind: TokKind::Literal,
                    line: start_line,
                });
                i = j;
            }
            'r' | 'b' if is_literal_prefix(&chars, i) => {
                let j = scan_prefixed_literal(&chars, i);
                line += count_lines(&chars[i..j]);
                toks.push(Token {
                    kind: TokKind::Literal,
                    line: start_line,
                });
                i = j;
            }
            // Raw identifier `r#ident`: one identifier token carrying
            // the full `r#` spelling so it can never collide with a
            // keyword the rules look for (`r#fn` is not `fn`).
            'r' if chars.get(i + 1) == Some(&'#')
                && chars
                    .get(i + 2)
                    .is_some_and(|c| c.is_alphabetic() || *c == '_') =>
            {
                let mut j = i + 2;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                toks.push(Token {
                    kind: TokKind::Ident(chars[i..j].iter().collect()),
                    line: start_line,
                });
                i = j;
            }
            '\'' => {
                // Lifetime iff an identifier follows and is NOT closed
                // by another quote ('a vs 'a').
                let mut j = i + 1;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let is_lifetime = j > i + 1 && chars.get(j) != Some(&'\'');
                if is_lifetime {
                    toks.push(Token {
                        kind: TokKind::Lifetime,
                        line: start_line,
                    });
                    i = j;
                } else {
                    let j = scan_char(&chars, i + 1);
                    line += count_lines(&chars[i..j]);
                    toks.push(Token {
                        kind: TokKind::Literal,
                        line: start_line,
                    });
                    i = j;
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                toks.push(Token {
                    kind: TokKind::Ident(chars[i..j].iter().collect()),
                    line: start_line,
                });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < chars.len() {
                    let d = chars[j];
                    let continues = d.is_alphanumeric()
                        || d == '_'
                        || (d == '.' && chars.get(j + 1).is_some_and(|n| n.is_ascii_digit()))
                        || ((d == '+' || d == '-')
                            && matches!(chars.get(j - 1), Some('e') | Some('E')));
                    if !continues {
                        break;
                    }
                    j += 1;
                }
                toks.push(Token {
                    kind: TokKind::Num(chars[i..j].iter().collect()),
                    line: start_line,
                });
                i = j;
            }
            c => {
                toks.push(Token {
                    kind: TokKind::Punct(c),
                    line: start_line,
                });
                i += 1;
            }
        }
    }
    toks
}

/// True when position `i` (at `r` or `b`) starts a raw/byte literal
/// rather than an identifier.
fn is_literal_prefix(chars: &[char], i: usize) -> bool {
    match chars[i] {
        'r' => {
            matches!(chars.get(i + 1), Some('"') | Some('#')) && raw_hashes_then_quote(chars, i + 1)
        }
        'b' => match chars.get(i + 1) {
            Some('"') | Some('\'') => true,
            Some('r') => raw_hashes_then_quote(chars, i + 2),
            _ => false,
        },
        _ => false,
    }
}

/// From `start`, skip `#`s and require a `"` (the raw-string opener).
fn raw_hashes_then_quote(chars: &[char], start: usize) -> bool {
    let mut j = start;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Scan past a non-raw string body starting after the opening quote;
/// returns the index just past the closing quote.
fn scan_string(chars: &[char], mut j: usize) -> usize {
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            '"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Scan past a char/byte-char literal body; returns the index just
/// past the closing quote.
fn scan_char(chars: &[char], mut j: usize) -> usize {
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            '\'' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Scan a literal with an `r`/`b`/`br` prefix starting at `i`; returns
/// the index just past it.
///
/// Raw strings (any prefix containing `r`) have **no escape
/// processing**: `r"\"` is a complete string holding one backslash.
/// Routing them through the escape-aware [`scan_string`] would let a
/// trailing backslash swallow the rest of the file — and with it any
/// `unwrap()`/`panic!` tokens the rules should have seen.
fn scan_prefixed_literal(chars: &[char], i: usize) -> usize {
    let mut j = i;
    let mut raw = false;
    while matches!(chars.get(j), Some('r') | Some('b')) {
        raw |= chars[j] == 'r';
        j += 1;
    }
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    match chars.get(j) {
        Some('"') if raw => {
            // Raw string: no escapes; ends at `"` followed by exactly
            // `hashes` hashes (zero hashes: the very next quote).
            j += 1;
            while j < chars.len() {
                if chars[j] == '"'
                    && chars[j + 1..].iter().take_while(|&&c| c == '#').count() >= hashes
                {
                    return j + 1 + hashes;
                }
                j += 1;
            }
            j
        }
        Some('"') => scan_string(chars, j + 1),
        Some('\'') => scan_char(chars, j + 1),
        _ => j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn code_in_strings_and_comments_is_not_idents() {
        let src = r###"
            let x = "unsafe unwrap()";
            // unsafe in a comment
            /* unwrap() in /* a nested */ block */
            let y = r#"panic!()"#;
            call();
        "###;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "x", "let", "y", "call"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = tokenize("fn f<'a>(x: &'a str) { let c = 'x'; let esc = '\\''; }");
        let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = toks.iter().filter(|t| t.kind == TokKind::Literal).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "/* a\nb\nc */\nfn f() {}\n\"x\ny\"\nend";
        let toks = tokenize(src);
        let f = toks
            .iter()
            .find(|t| t.kind == TokKind::Ident("fn".into()))
            .unwrap();
        assert_eq!(f.line, 4);
        let end = toks
            .iter()
            .find(|t| t.kind == TokKind::Ident("end".into()))
            .unwrap();
        assert_eq!(end.line, 7);
    }

    #[test]
    fn raw_string_backslash_does_not_swallow_following_code() {
        // `r"\"` is a complete raw string (one backslash); the escape-
        // aware scanner used to treat `\"` as an escaped quote and
        // consume to end of input, hiding the unwrap from the rules.
        let src = "let re = r\"\\\"; x.unwrap();";
        assert_eq!(idents(src), vec!["let", "re", "x", "unwrap"]);
        // Same for byte-raw strings.
        let src = "let re = br\"\\\"; x.unwrap();";
        assert_eq!(idents(src), vec!["let", "re", "x", "unwrap"]);
    }

    #[test]
    fn zero_hash_raw_string_hides_panic_tokens() {
        let src = r#"let s = r"panic!() unwrap()"; go();"#;
        assert_eq!(idents(src), vec!["let", "s", "go"]);
    }

    #[test]
    fn hashed_raw_strings_end_only_at_matching_hashes() {
        // The `"#` inside the body has too few hashes to close.
        let src = "let s = r##\"inner \"# unwrap()\"##; done();";
        assert_eq!(idents(src), vec!["let", "s", "done"]);
    }

    #[test]
    fn nested_block_comments_hide_panic_tokens() {
        let src = "/* outer /* panic!() */ still /* deep */ comment */ call();";
        assert_eq!(idents(src), vec!["call"]);
    }

    #[test]
    fn raw_identifiers_do_not_alias_keywords() {
        let toks = tokenize("let r#fn = r#match;");
        let ids: Vec<String> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec!["let", "r#fn", "r#match"]);
    }

    #[test]
    fn num_tokens_carry_their_text() {
        let toks = tokenize("a / 0; b % 32; c / 2.5");
        let nums: Vec<&str> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Num(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["0", "32", "2.5"]);
    }

    #[test]
    fn comments_keep_their_text() {
        let toks = tokenize("// SAFETY: fine\nunsafe {}");
        assert!(matches!(
            &toks[0].kind,
            TokKind::Comment(c) if c.contains("SAFETY:")
        ));
    }
}
