//! The lexical scanner behind the lint rules: strips comments and
//! string literals with a character-level state machine (handling
//! nested block comments, escapes, raw strings, and the char-literal /
//! lifetime ambiguity), and marks `#[cfg(test)] mod` regions by brace
//! depth. No external parser — the rules only need token-level
//! precision, and a hand-rolled lexer keeps the tool dependency-free.

/// A scanned source file: per-line views the rules match against.
pub(crate) struct FileScan {
    /// Original lines (annotations and `SAFETY:`/`ordering:` comments
    /// are looked up here).
    pub raw: Vec<String>,
    /// Lines with comments and string/char literals blanked to spaces
    /// (code structure only).
    pub code: Vec<String>,
    /// String literal contents collected per line (for failpoint-name
    /// checking).
    pub strings: Vec<Vec<String>>,
    /// Whether the line sits inside a `#[cfg(test)] mod … { … }`
    /// region (or other cfg containing the word `test`).
    pub is_test: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    /// Nesting depth of `/* … */` (Rust block comments nest).
    BlockComment(u32),
    Str,
    RawStr {
        hashes: u32,
    },
    Char,
}

impl FileScan {
    pub fn new(text: &str) -> Self {
        let raw: Vec<String> = text.lines().map(str::to_owned).collect();
        let (code, strings) = strip(text);
        debug_assert_eq!(code.len(), raw.len());
        let is_test = mark_test_regions(&code);
        FileScan { raw, code, strings, is_test }
    }

    /// The next identifier/keyword token at or after (`line`, `col`) in
    /// the code view, skipping whitespace across line breaks.
    pub fn next_word_after(&self, line: usize, col: usize) -> Option<String> {
        let mut l = line;
        let mut c = col;
        loop {
            let bytes = self.code.get(l)?.as_bytes();
            while c < bytes.len() && bytes[c].is_ascii_whitespace() {
                c += 1;
            }
            if c >= bytes.len() {
                l += 1;
                c = 0;
                continue;
            }
            if !is_word_byte(bytes[c]) {
                return Some((bytes[c] as char).to_string());
            }
            let start = c;
            while c < bytes.len() && is_word_byte(bytes[c]) {
                c += 1;
            }
            return Some(String::from_utf8_lossy(&bytes[start..c]).into_owned());
        }
    }
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets of whole-word occurrences of `word` in `line`.
pub(crate) fn token_positions(line: &str, word: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let left_ok = start == 0 || !is_word_byte(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !is_word_byte(bytes[end]);
        if left_ok && right_ok {
            out.push(start);
        }
        from = end;
    }
    out
}

/// Blank comments and literals out of `text`; collect string-literal
/// contents per line.
fn strip(text: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let mut code_lines = Vec::new();
    let mut string_lines = Vec::new();
    let mut code = String::new();
    let mut literals: Vec<String> = Vec::new();
    let mut current_lit = String::new();
    let mut state = State::Code;

    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i <= chars.len() {
        if i == chars.len() {
            // Final segment: `str::lines()` emits no trailing empty
            // line after a terminating newline — mirror that exactly.
            if !text.is_empty() && !text.ends_with('\n') {
                code_lines.push(std::mem::take(&mut code));
                string_lines.push(std::mem::take(&mut literals));
            }
            break;
        }
        if chars[i] == '\n' {
            match state {
                State::LineComment => state = State::Code,
                // An unterminated plain string at EOL is a multi-line
                // string literal: the newline belongs to its content.
                State::Str | State::RawStr { .. } => current_lit.push('\n'),
                _ => {}
            }
            code_lines.push(std::mem::take(&mut code));
            string_lines.push(std::mem::take(&mut literals));
            i += 1;
            continue;
        }
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                    continue;
                }
                '"' => {
                    state = State::Str;
                    code.push(' ');
                }
                'r' if matches!(next, Some('"') | Some('#')) && !prev_is_word(&code) => {
                    // Raw string r"…" / r#"…"# — count the hashes.
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        for _ in i..=j {
                            code.push(' ');
                        }
                        state = State::RawStr { hashes };
                        i = j + 1;
                        continue;
                    }
                    code.push(c);
                }
                '\'' => {
                    // Char literal vs lifetime: a literal is `'x'` or
                    // `'\…'`; a lifetime is `'word` with no closing
                    // quote right after.
                    let is_char_lit = match next {
                        Some('\\') => true,
                        Some(_) => chars.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char_lit {
                        state = State::Char;
                    }
                    code.push(if is_char_lit { ' ' } else { '\'' });
                }
                _ => code.push(c),
            },
            State::LineComment => {
                code.push(' ');
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    state =
                        if depth == 1 { State::Code } else { State::BlockComment(depth - 1) };
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                    continue;
                }
                code.push(' ');
            }
            State::Str => match c {
                '\\' => {
                    // Keep the escape uninterpreted in the collected
                    // literal; failpoint names never contain escapes.
                    // A `\` before a newline is a line continuation —
                    // leave the newline for the top-of-loop handler so
                    // line bookkeeping stays in sync.
                    current_lit.push(c);
                    match next {
                        Some(n) if n != '\n' => {
                            current_lit.push(n);
                            code.push(' ');
                            code.push(' ');
                            i += 2;
                            continue;
                        }
                        _ => code.push(' '),
                    }
                }
                '"' => {
                    literals.push(std::mem::take(&mut current_lit));
                    state = State::Code;
                    code.push(' ');
                }
                _ => {
                    current_lit.push(c);
                    code.push(' ');
                }
            },
            State::RawStr { hashes } => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        literals.push(std::mem::take(&mut current_lit));
                        state = State::Code;
                        for _ in i..j {
                            code.push(' ');
                        }
                        i = j;
                        continue;
                    }
                }
                current_lit.push(c);
                code.push(' ');
            }
            State::Char => {
                if c == '\\' && next.is_some() && next != Some('\n') {
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                    continue;
                }
                if c == '\'' {
                    state = State::Code;
                }
                code.push(' ');
            }
        }
        i += 1;
    }
    (code_lines, string_lines)
}

fn prev_is_word(code: &str) -> bool {
    code.bytes().last().is_some_and(is_word_byte)
}

/// Mark lines inside `#[cfg(test)] mod … { … }` regions (any cfg
/// attribute containing the word `test` counts, e.g.
/// `#[cfg(all(test, unix))]`).
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut is_test = vec![false; code.len()];
    let mut depth: i32 = 0;
    /// A pending test-cfg attribute / an open test region.
    enum Region {
        None,
        /// Saw the attribute; waiting to see whether a `mod` follows.
        Pending,
        /// Inside the region; close when depth returns to this value.
        Open(i32),
    }
    let mut region = Region::None;
    for (i, line) in code.iter().enumerate() {
        if let Region::Open(at) = region {
            is_test[i] = true;
            // Close below; the brace count of this line decides.
            let (opens, closes) = brace_count(line);
            depth += opens - closes;
            if depth <= at {
                region = Region::None;
            }
            continue;
        }
        let has_test_cfg =
            line.contains("#[cfg(") && !token_positions(line, "test").is_empty();
        if let Region::Pending = region {
            is_test[i] = true; // the attribute's item line
                               // The attributed item may be a `mod` or any other item
                               // (fn, use): a brace-open starts the region either way; a
                               // braceless line ending in `;` closes the attribute's
                               // scope.
            let (opens, closes) = brace_count(line);
            if opens > 0 {
                let at = depth;
                depth += opens - closes;
                if depth > at {
                    region = Region::Open(at);
                } else {
                    region = Region::None;
                }
            } else {
                depth += opens - closes;
                if line.contains(';') {
                    region = Region::None;
                }
            }
            continue;
        }
        if has_test_cfg {
            is_test[i] = true;
            region = Region::Pending;
            let (opens, closes) = brace_count(line);
            depth += opens - closes;
            continue;
        }
        let (opens, closes) = brace_count(line);
        depth += opens - closes;
    }
    is_test
}

fn brace_count(line: &str) -> (i32, i32) {
    let opens = line.bytes().filter(|&b| b == b'{').count() as i32;
    let closes = line.bytes().filter(|&b| b == b'}').count() as i32;
    (opens, closes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let scan = FileScan::new(
            "let x = \"a // not comment\"; // real comment .unwrap()\nlet y = 2; /* block\n.unwrap() */ let z = 3;\n",
        );
        assert!(!scan.code[0].contains("not comment"));
        assert!(!scan.code[0].contains(".unwrap()"));
        assert!(scan.code[0].contains("let x ="));
        assert_eq!(scan.strings[0], vec!["a // not comment".to_owned()]);
        assert!(!scan.code[2].contains(".unwrap()"));
        assert!(scan.code[2].contains("let z = 3;"));
    }

    #[test]
    fn string_line_continuation_keeps_line_count() {
        // `\` before a newline continues the string; the newline must
        // still produce a line in the stripped view.
        let src = "let s = \"first \\\n    second\";\nlet t = 1;\n";
        let scan = FileScan::new(src);
        assert_eq!(scan.code.len(), 3);
        assert!(scan.code[2].contains("let t = 1;"));
        assert!(!scan.code[1].contains("second"));
    }

    #[test]
    fn raw_strings_and_chars_and_lifetimes() {
        let scan = FileScan::new(
            "let s = r#\"raw \"quoted\" text\"#;\nlet c = '\\'';\nfn f<'a>(x: &'a str) {}\nlet q = 'q';\n",
        );
        assert_eq!(scan.strings[0], vec!["raw \"quoted\" text".to_owned()]);
        assert!(scan.code[2].contains("fn f<'a>(x: &'a str)"));
        assert!(!scan.code[3].contains('q') || !scan.code[3].contains("'q'"));
    }

    #[test]
    fn nested_block_comments() {
        let scan = FileScan::new("a /* x /* y */ z */ b\n");
        assert!(scan.code[0].contains('a'));
        assert!(scan.code[0].contains('b'));
        assert!(!scan.code[0].contains('y'));
        assert!(!scan.code[0].contains('z'));
    }

    #[test]
    fn test_mod_regions_are_marked() {
        let src = "\
fn lib() { x.unwrap(); }

#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}

fn lib2() {}
";
        let scan = FileScan::new(src);
        assert!(!scan.is_test[0]);
        assert!(scan.is_test[2]);
        assert!(scan.is_test[3]);
        assert!(scan.is_test[4]);
        assert!(scan.is_test[5]);
        assert!(!scan.is_test[7]);
    }

    #[test]
    fn cfg_all_test_counts_as_test_region() {
        let src =
            "#[cfg(all(test, not(other)))]\nmod tests {\n    a.unwrap();\n}\nfn f() {}\n";
        let scan = FileScan::new(src);
        assert!(scan.is_test[2]);
        assert!(!scan.is_test[4]);
    }

    #[test]
    fn token_positions_are_word_bounded() {
        assert_eq!(token_positions("unsafe_fn unsafe {", "unsafe"), vec![10]);
        assert_eq!(token_positions("Relaxed; NotRelaxed", "Relaxed"), vec![0]);
    }

    #[test]
    fn next_word_after_skips_lines() {
        let scan = FileScan::new("unsafe\n    impl Foo {}\n");
        assert_eq!(scan.next_word_after(0, 6).as_deref(), Some("impl"));
        let scan = FileScan::new("let a = unsafe { f() };\n");
        let col = token_positions(&scan.code[0], "unsafe")[0];
        assert_eq!(scan.next_word_after(0, col + 6).as_deref(), Some("{"));
    }
}
