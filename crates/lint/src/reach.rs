//! `unreached-pub`: the one workspace-wide rule.
//!
//! A bare `pub` item (`fn`, `struct`, `enum`, `trait`, `const`, `type`) of a
//! library crate stays only while something outside the tests reaches it.
//! The pass is name-based: after the per-file rules, it collects the names of
//! the bare `pub` items in the defining files, then looks for any other token
//! with that name in every file it reads. A token does not count as a use
//! when it
//! - sits in a test region (`#[cfg(test)]` / `#[test]` items),
//! - names an item at its definition (the identifier after `fn`, `struct`,
//!   `enum`, `trait`, `const` or `type`),
//! - sits in an `impl` block's header (`impl Display for Foo`), which belongs
//!   to the item it implements, or
//! - sits in a `pub use` re-export, which repeats a name without reaching it.
//!
//! A private `use` does count: rustc rejects an unused import, so a private
//! import is a use (a trait imported for its methods is reached that way).
//! `pub(crate)` items are not collected, and trait-impl methods carry no
//! `pub`. A name shared by two items is reached when either is used, so the
//! rule can miss an item; it never flags one that a token of the read files
//! names.

use crate::lexer::{Token, TokenKind};
use crate::rules::test_regions;
use std::collections::BTreeSet;

/// One lexed file of the pass.
pub struct Unit<'a> {
    /// The file's tokens.
    pub tokens: &'a [Token],
    /// True when the pass collects this file's `pub` items; every unit's
    /// tokens count as uses.
    pub defines: bool,
}

/// The item keywords whose bare `pub` items the pass collects.
const ITEM_KEYWORDS: [&str; 6] = ["fn", "struct", "enum", "trait", "const", "type"];

/// Returns `(unit index, line, name)` for each collected `pub` item whose
/// name no counted token of any unit uses, in unit then line order.
pub fn unreached_pub(units: &[Unit]) -> Vec<(usize, u32, String)> {
    let mut used = BTreeSet::new();
    let mut defined = Vec::new();
    for (index, unit) in units.iter().enumerate() {
        let scan = scan_unit(unit.tokens);
        used.extend(scan.uses);
        if unit.defines {
            defined.extend(scan.pub_items.into_iter().map(|(line, name)| (index, line, name)));
        }
    }
    defined.retain(|(_, _, name)| !used.contains(name));
    defined
}

struct UnitScan {
    uses: Vec<String>,
    pub_items: Vec<(u32, String)>,
}

fn scan_unit(tokens: &[Token]) -> UnitScan {
    let in_test = test_regions(tokens);
    let code: Vec<&Token> = tokens
        .iter()
        .zip(&in_test)
        .filter(|(t, test)| {
            !**test && !matches!(t.kind, TokenKind::LineComment(_) | TokenKind::Lifetime)
        })
        .map(|(t, _)| t)
        .collect();
    let ident = |i: usize| match code.get(i).map(|t| &t.kind) {
        Some(TokenKind::Ident(name)) => Some(name.as_str()),
        _ => None,
    };
    let punct = |i: usize| match code.get(i).map(|t| &t.kind) {
        Some(TokenKind::Punct(c)) => Some(*c),
        _ => None,
    };

    let mut scan = UnitScan { uses: Vec::new(), pub_items: Vec::new() };
    // Tokens up to this index belong to a re-export or an impl header.
    let mut skip_until = 0usize;
    for (i, token) in code.iter().enumerate() {
        let TokenKind::Ident(name) = &token.kind else { continue };
        if i < skip_until {
            continue;
        }
        match name.as_str() {
            "pub" => {
                // Past a restriction: `pub(crate)` and friends.
                let after =
                    if punct(i + 1) == Some('(') { close_paren(&code, i + 1) + 1 } else { i + 1 };
                if ident(after) == Some("use") {
                    skip_until = end_of(&code, after, ';');
                } else if after == i + 1 {
                    if let Some((line, item)) = pub_item(&code, i + 1) {
                        scan.pub_items.push((line, item.to_owned()));
                    }
                }
            }
            "impl" if i == 0 || matches!(punct(i - 1), Some('}' | ';' | ']' | '{')) => {
                skip_until = end_of(&code, i, '{');
            }
            _ if i > 0 && ident(i - 1).is_some_and(|k| ITEM_KEYWORDS.contains(&k)) => {}
            _ => scan.uses.push(name.clone()),
        }
    }
    scan
}

/// The line and name of the item a bare `pub` at `start` opens, when it is
/// one the pass collects: `pub fn`, `pub const fn`, `pub struct`, ….
fn pub_item<'a>(code: &[&'a Token], start: usize) -> Option<(u32, &'a str)> {
    let word = |i: usize| match code.get(i).map(|t| &t.kind) {
        Some(TokenKind::Ident(word)) => Some(word.as_str()),
        _ => None,
    };
    let mut i = start;
    if matches!(word(i), Some("const" | "unsafe" | "async")) && word(i + 1) == Some("fn") {
        i += 1;
    }
    if !word(i).is_some_and(|keyword| ITEM_KEYWORDS.contains(&keyword)) {
        return None;
    }
    let name = word(i + 1)?;
    Some((code[i + 1].line, name))
}

/// The index of the `)` that closes the `(` at `open`.
fn close_paren(code: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, token) in code.iter().enumerate().skip(open) {
        match token.kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// The index just past the first `end` at brace depth zero from `start`.
fn end_of(code: &[&Token], start: usize, end: char) -> usize {
    let mut depth = 0usize;
    for (i, token) in code.iter().enumerate().skip(start) {
        match token.kind {
            TokenKind::Punct(c) if c == end && (depth == 0 || c == '{') => return i + 1,
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    code.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn unreached(src: &str) -> Vec<String> {
        let tokens = lex(src);
        let units = [Unit { tokens: &tokens, defines: true }];
        unreached_pub(&units).into_iter().map(|(_, _, name)| name).collect()
    }

    #[test]
    fn a_call_reaches_and_a_definition_does_not() {
        assert_eq!(unreached("pub fn a() {}\npub fn b() { a() }\n"), ["b"]);
    }

    #[test]
    fn restricted_items_are_not_collected() {
        assert!(unreached("pub(crate) fn a() {}\npub(super) struct S;\n").is_empty());
    }

    #[test]
    fn re_exports_and_impl_headers_do_not_reach() {
        let src = "pub struct S;\nimpl S { pub fn new() -> Self { Self } }\n\
                   impl Clone for S { fn clone(&self) -> Self { Self } }\npub use self::S as T;\n";
        assert_eq!(unreached(src), ["S", "new"]);
    }

    #[test]
    fn a_private_import_reaches() {
        assert_eq!(unreached("pub trait Tr {}\nuse crate::Tr;\n"), Vec::<String>::new());
    }

    #[test]
    fn a_use_in_a_test_region_does_not_reach() {
        let src = "pub const N: u32 = 1;\n#[cfg(test)]\nmod tests { fn t() { let _ = N; } }\n";
        assert_eq!(unreached(src), ["N"]);
    }

    #[test]
    fn an_impl_trait_type_is_a_use() {
        let src = "pub trait Tr {}\npub fn f() -> impl Tr { () }\nfn g() { f() }\n";
        assert_eq!(unreached(src), Vec::<String>::new());
    }
}
