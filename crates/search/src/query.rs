//! The typed query language: `field:value` terms, boolean operators,
//! and range predicates over timestamps and decayed threat scores.
//!
//! ```text
//! query      := or | ε                        (empty input matches all)
//! or         := and ( OR and )*
//! and        := unary ( [AND] unary )*        (adjacency is implicit AND)
//! unary      := NOT unary | primary
//! primary    := '(' or ')' | comparison | term | bare-value
//! comparison := ('date'|'score') ('<'|'<='|'>'|'>=') scalar
//! term       := field ':' value               (field ∈ type, category,
//!                                              tag, org, value, contains,
//!                                              published)
//! ```
//!
//! Values are bare words or `"quoted strings"` (with `\"` and `\\`
//! escapes) — quoting is what lets tag names like
//! `cais:decay-state="decayed"` be queried at all. Precedence is
//! `NOT > AND > OR`. The reference semantics of a parsed query is
//! [`matches_event`]; `SearchIndex::search` must agree with it exactly
//! (the equivalence property tests hold it to that).
//!
//! [`Query`]'s `Display` prints a canonical form that reparses to the
//! identical AST — the round-trip property the parser tests pin down.
//!
//! [`SearchIndex::search`]: crate::SearchIndex::search

use std::fmt;

use cais_common::Timestamp;
use cais_misp::MispEvent;

/// Nesting depth bound: parenthesis and `NOT` towers beyond this are
/// rejected instead of recursing toward stack exhaustion, which keeps
/// the parser total over arbitrary byte soup.
pub const MAX_QUERY_DEPTH: usize = 64;

/// Machine-tag namespace + predicate under which the decay engine
/// publishes its current score (`cais:decay-score="…"`); `score`
/// range predicates read this tag first. Mirrors
/// `cais_decay::{DECAY_TAG_NAMESPACE, DECAY_SCORE_PREDICATE}` — a test
/// in this crate pins the two pairs together.
pub const DECAY_SCORE_TAG: (&str, &str) = ("cais", "decay-score");

/// A term's field: which slice of the event the value is matched
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// Exact attribute type (`type:ip-dst`), case-sensitive like the
    /// store's linear search.
    Type,
    /// Attribute category by MISP display name, case-insensitive
    /// (`category:"Network activity"`).
    Category,
    /// Exact event-level tag name, case-sensitive (`tag:tlp:amber`).
    Tag,
    /// Owning organization, case-insensitive (`org:acme`).
    Org,
    /// Normalized attribute value: matches the whole trimmed lowercased
    /// value or any of its alphanumeric sub-tokens (`value:evil.example`
    /// and `value:evil` both hit a `c2.evil.example` attribute's event
    /// only via the `evil` token; the full-value token is the exact
    /// normalized string).
    Value,
}

impl Field {
    /// The field's keyword in the query grammar.
    pub fn name(self) -> &'static str {
        match self {
            Field::Type => "type",
            Field::Category => "category",
            Field::Tag => "tag",
            Field::Org => "org",
            Field::Value => "value",
        }
    }

    fn from_keyword(word: &str) -> Option<Field> {
        match word.to_ascii_lowercase().as_str() {
            "type" => Some(Field::Type),
            "category" => Some(Field::Category),
            "tag" => Some(Field::Tag),
            "org" => Some(Field::Org),
            "value" => Some(Field::Value),
            _ => None,
        }
    }
}

/// A range predicate's comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Cmp {
    /// The operator's surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
        }
    }

    /// Whether `lhs OP rhs` holds.
    pub fn holds<T: PartialOrd>(self, lhs: T, rhs: T) -> bool {
        match self {
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
        }
    }
}

/// A parsed query. Construct with [`Query::parse`]; `Display` prints a
/// canonical form that reparses to the identical AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Matches every event (the empty query).
    All,
    /// A `field:value` term.
    Term {
        /// Which event slice to match.
        field: Field,
        /// The value to match, un-normalized as written.
        value: String,
    },
    /// Case-insensitive substring over raw attribute values
    /// (`contains:needle`). The index narrows a needle of three or more
    /// bytes to the events posting all of its trigrams and checks each
    /// candidate exactly; shorter needles scan every event.
    Contains(String),
    /// `published:true` / `published:false`.
    Published(bool),
    /// Comparison against the event date (`date>=2021-03-01`).
    DateRange {
        /// The comparison operator.
        cmp: Cmp,
        /// The instant compared against.
        instant: Timestamp,
    },
    /// Comparison against the decayed threat score
    /// (`score>=2.5`): the event's `cais:decay-score` machine tag when
    /// the decay engine has stamped one, else its plain threat score.
    /// Events carrying neither never match.
    ScoreRange {
        /// The comparison operator.
        cmp: Cmp,
        /// The score compared against.
        score: f64,
    },
    /// Negation (complement against all indexed events).
    Not(Box<Query>),
    /// Conjunction of two or more operands.
    And(Vec<Query>),
    /// Disjunction of two or more operands.
    Or(Vec<Query>),
}

/// A syntax error with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.position)
    }
}

impl std::error::Error for ParseError {}

fn err(message: impl Into<String>, position: usize) -> ParseError {
    ParseError {
        message: message.into(),
        position,
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    LParen,
    RParen,
    Cmp(Cmp),
    /// A bare word; may carry a `field:` prefix, split by the parser.
    Word(String),
    /// A `"quoted"` string — never a keyword, never split on `:`.
    Quoted(String),
}

/// Characters that terminate a bare word. `=` and `:` stay word
/// characters so machine-tag names (`tlp:amber`,
/// `cais:threat-score="…"` minus the quotes) survive as single tokens.
fn is_word_break(c: char) -> bool {
    c.is_whitespace() || matches!(c, '(' | ')' | '"' | '<' | '>')
}

fn lex(input: &str) -> Result<Vec<(usize, Tok)>, ParseError> {
    let mut toks = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some(&(at, c)) = chars.peek() {
        match c {
            _ if c.is_whitespace() => {
                chars.next();
            }
            '(' => {
                chars.next();
                toks.push((at, Tok::LParen));
            }
            ')' => {
                chars.next();
                toks.push((at, Tok::RParen));
            }
            '<' | '>' => {
                chars.next();
                let eq = chars.peek().is_some_and(|&(_, n)| n == '=');
                if eq {
                    chars.next();
                }
                let cmp = match (c, eq) {
                    ('<', false) => Cmp::Lt,
                    ('<', true) => Cmp::Le,
                    ('>', false) => Cmp::Gt,
                    ('>', true) => Cmp::Ge,
                    _ => unreachable!("guarded above"),
                };
                toks.push((at, Tok::Cmp(cmp)));
            }
            '"' => {
                chars.next();
                let mut value = String::new();
                loop {
                    match chars.next() {
                        Some((_, '"')) => break,
                        Some((_, '\\')) => match chars.next() {
                            Some((_, esc @ ('"' | '\\'))) => value.push(esc),
                            Some((p, other)) => {
                                return Err(err(format!("unknown escape '\\{other}'"), p))
                            }
                            None => return Err(err("unterminated string", input.len())),
                        },
                        Some((_, c)) => value.push(c),
                        None => return Err(err("unterminated string", input.len())),
                    }
                }
                toks.push((at, Tok::Quoted(value)));
            }
            _ => {
                let mut word = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if is_word_break(c) {
                        break;
                    }
                    word.push(c);
                    chars.next();
                }
                toks.push((at, Tok::Word(word)));
            }
        }
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn at(&self) -> usize {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(0, |(p, _)| *p)
    }

    fn next(&mut self) -> Option<Tok> {
        let tok = self.toks.get(self.pos).map(|(_, t)| t.clone());
        if tok.is_some() {
            self.pos += 1;
        }
        tok
    }

    /// Whether the next token is the given unquoted keyword.
    fn keyword(&self, word: &str) -> bool {
        matches!(self.peek(), Some(Tok::Word(w)) if w.eq_ignore_ascii_case(word))
    }

    fn parse_or(&mut self, depth: usize) -> Result<Query, ParseError> {
        if depth > MAX_QUERY_DEPTH {
            return Err(err("query too deeply nested", self.at()));
        }
        let mut items = vec![self.parse_and(depth)?];
        while self.keyword("or") {
            self.next();
            items.push(self.parse_and(depth)?);
        }
        Ok(if items.len() == 1 {
            items.pop().expect("one item")
        } else {
            Query::Or(items)
        })
    }

    fn parse_and(&mut self, depth: usize) -> Result<Query, ParseError> {
        let mut items = vec![self.parse_unary(depth)?];
        loop {
            if self.keyword("and") {
                self.next();
            } else {
                // Implicit AND: any token that can start a primary
                // continues the conjunction.
                match self.peek() {
                    Some(Tok::RParen) | None => break,
                    Some(Tok::Word(w)) if w.eq_ignore_ascii_case("or") => break,
                    _ => {}
                }
            }
            items.push(self.parse_unary(depth)?);
        }
        Ok(if items.len() == 1 {
            items.pop().expect("one item")
        } else {
            Query::And(items)
        })
    }

    fn parse_unary(&mut self, depth: usize) -> Result<Query, ParseError> {
        if depth > MAX_QUERY_DEPTH {
            return Err(err("query too deeply nested", self.at()));
        }
        if self.keyword("not") {
            self.next();
            return Ok(Query::Not(Box::new(self.parse_unary(depth + 1)?)));
        }
        self.parse_primary(depth)
    }

    fn parse_primary(&mut self, depth: usize) -> Result<Query, ParseError> {
        let at = self.at();
        match self.next() {
            Some(Tok::LParen) => {
                let inner = self.parse_or(depth + 1)?;
                match self.next() {
                    Some(Tok::RParen) => Ok(inner),
                    _ => Err(err("expected ')'", self.at())),
                }
            }
            Some(Tok::RParen) => Err(err("unexpected ')'", at)),
            Some(Tok::Cmp(_)) => Err(err("comparison operator without a field", at)),
            Some(Tok::Quoted(value)) => Ok(Query::Term {
                field: Field::Value,
                value,
            }),
            Some(Tok::Word(word)) => self.parse_word(word, at),
            None => Err(err("expected a term", at)),
        }
    }

    /// A word is a comparison field (followed by an operator), a
    /// `field:value` term, or a bare value term.
    fn parse_word(&mut self, word: String, at: usize) -> Result<Query, ParseError> {
        if let Some(Tok::Cmp(cmp)) = self.peek() {
            let cmp = *cmp;
            return match word.to_ascii_lowercase().as_str() {
                "date" => {
                    self.next();
                    let instant = self.parse_date_scalar()?;
                    Ok(Query::DateRange { cmp, instant })
                }
                "score" => {
                    self.next();
                    let score = self.parse_score_scalar()?;
                    Ok(Query::ScoreRange { cmp, score })
                }
                _ => Err(err(
                    format!("'{word}' is not a range field (use date or score)"),
                    at,
                )),
            };
        }
        if word.eq_ignore_ascii_case("and")
            || word.eq_ignore_ascii_case("or")
            || word.eq_ignore_ascii_case("not")
        {
            return Err(err(format!("'{word}' without an operand"), at));
        }
        let Some((head, rest)) = word.split_once(':') else {
            return Ok(Query::Term {
                field: Field::Value,
                value: word,
            });
        };
        let value = |parser: &mut Parser, rest: &str| -> Result<String, ParseError> {
            if rest.is_empty() {
                match parser.peek() {
                    Some(Tok::Quoted(_)) => match parser.next() {
                        Some(Tok::Quoted(v)) => Ok(v),
                        _ => unreachable!("peeked a quoted token"),
                    },
                    _ => Err(err(format!("missing value after '{head}:'"), at)),
                }
            } else {
                Ok(rest.to_owned())
            }
        };
        if let Some(field) = Field::from_keyword(head) {
            let value = value(self, rest)?;
            return Ok(Query::Term { field, value });
        }
        match head.to_ascii_lowercase().as_str() {
            "contains" => Ok(Query::Contains(value(self, rest)?)),
            "published" => match value(self, rest)?.as_str() {
                "true" => Ok(Query::Published(true)),
                "false" => Ok(Query::Published(false)),
                other => Err(err(
                    format!("published takes true or false, not '{other}'"),
                    at,
                )),
            },
            "date" | "score" => Err(err(
                format!("'{head}' takes a comparison operator, e.g. {head}>=…"),
                at,
            )),
            // Unknown head: the whole word is a bare value (values like
            // URLs legitimately contain ':').
            _ => Ok(Query::Term {
                field: Field::Value,
                value: word,
            }),
        }
    }

    fn parse_date_scalar(&mut self) -> Result<Timestamp, ParseError> {
        let at = self.at();
        let text = match self.next() {
            Some(Tok::Word(w)) => w,
            Some(Tok::Quoted(q)) => q,
            _ => return Err(err("expected a timestamp", at)),
        };
        if let Ok(ts) = Timestamp::parse_rfc3339(&text) {
            return Ok(ts);
        }
        if let Ok(secs) = text.parse::<i64>() {
            return Ok(Timestamp::from_unix_secs(secs));
        }
        Err(err(format!("'{text}' is not a timestamp"), at))
    }

    fn parse_score_scalar(&mut self) -> Result<f64, ParseError> {
        let at = self.at();
        let text = match self.next() {
            Some(Tok::Word(w)) => w,
            Some(Tok::Quoted(q)) => q,
            _ => return Err(err("expected a score", at)),
        };
        match text.parse::<f64>() {
            Ok(score) if score.is_finite() => Ok(score),
            _ => Err(err(format!("'{text}' is not a finite score"), at)),
        }
    }
}

impl Query {
    /// Parses a query expression. Total over arbitrary input: any byte
    /// soup yields `Ok` or a [`ParseError`], never a panic. The empty
    /// (or all-whitespace) string parses to [`Query::All`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first syntax error.
    pub fn parse(input: &str) -> Result<Query, ParseError> {
        let toks = lex(input)?;
        if toks.is_empty() {
            return Ok(Query::All);
        }
        let mut parser = Parser { toks, pos: 0 };
        let query = parser.parse_or(0)?;
        if parser.pos != parser.toks.len() {
            return Err(err("unexpected trailing input", parser.at()));
        }
        Ok(query)
    }
}

/// Quotes `value` when the bare-word form would not survive a reparse.
fn display_value(value: &str) -> String {
    if !value.is_empty() && !value.contains(is_word_break) && !value.contains('\\') {
        return value.to_owned();
    }
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        if matches!(c, '"' | '\\') {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
    out
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Children that would re-associate are parenthesized, so the
        // printed form reparses to this exact AST.
        let wrap = |f: &mut fmt::Formatter<'_>, child: &Query, parens: bool| -> fmt::Result {
            if parens {
                write!(f, "({child})")
            } else {
                write!(f, "{child}")
            }
        };
        match self {
            Query::All => Ok(()),
            Query::Term { field, value } => {
                write!(f, "{}:{}", field.name(), display_value(value))
            }
            Query::Contains(value) => write!(f, "contains:{}", display_value(value)),
            Query::Published(published) => write!(f, "published:{published}"),
            Query::DateRange { cmp, instant } => {
                write!(f, "date{}{}", cmp.symbol(), instant.to_rfc3339())
            }
            Query::ScoreRange { cmp, score } => write!(f, "score{}{}", cmp.symbol(), score),
            Query::Not(inner) => {
                write!(f, "NOT ")?;
                wrap(f, inner, matches!(**inner, Query::And(_) | Query::Or(_)))
            }
            Query::And(items) => {
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    wrap(f, item, matches!(item, Query::And(_) | Query::Or(_)))?;
                }
                Ok(())
            }
            Query::Or(items) => {
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    wrap(f, item, matches!(item, Query::Or(_)))?;
                }
                Ok(())
            }
        }
    }
}

/// Normalizes a value the way the correlation index does: trimmed and
/// ASCII-lowercased.
pub(crate) fn normalize(value: &str) -> String {
    value.trim().to_ascii_lowercase()
}

/// Whether `needle` occurs in `haystack`, ASCII case-insensitively:
/// the same answer as lowercasing both and calling `str::contains`,
/// without allocating either lowercased copy.
pub(crate) fn contains_ignore_ascii_case(haystack: &str, needle: &str) -> bool {
    let needle = needle.as_bytes();
    needle.is_empty()
        || haystack
            .as_bytes()
            .windows(needle.len())
            .any(|window| window.eq_ignore_ascii_case(needle))
}

/// The alphanumeric sub-tokens of a normalized value (`c2.evil.example`
/// → `c2`, `evil`, `example`).
pub(crate) fn sub_tokens(normalized: &str) -> impl Iterator<Item = &str> {
    normalized
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|piece| !piece.is_empty())
}

/// The decayed threat score `score` range predicates read: the
/// [`DECAY_SCORE_TAG`] machine tag when present, else the event's
/// plain threat score, else `None` (such events never match a score
/// range).
pub fn decayed_score(event: &MispEvent) -> Option<f64> {
    let (namespace, predicate) = DECAY_SCORE_TAG;
    event
        .tags
        .iter()
        .filter(|t| t.namespace() == Some(namespace) && t.predicate() == Some(predicate))
        .find_map(|t| t.value()?.parse().ok())
        .or_else(|| event.threat_score())
}

/// The reference semantics: whether one event matches the query, by
/// direct inspection. This is the oracle the indexed evaluation is
/// property-tested against — a full scan with `matches_event` must
/// produce exactly the ids `SearchIndex::search` returns.
pub fn matches_event(query: &Query, event: &MispEvent) -> bool {
    match query {
        Query::All => true,
        Query::Term { field, value } => match field {
            Field::Type => event.attributes.iter().any(|a| a.attr_type == *value),
            Field::Category => {
                let needle = value.to_ascii_lowercase();
                event
                    .attributes
                    .iter()
                    .any(|a| a.category.name().eq_ignore_ascii_case(&needle))
            }
            Field::Tag => event.tags.iter().any(|t| t.name() == value),
            Field::Org => event.org.eq_ignore_ascii_case(value),
            Field::Value => {
                let needle = normalize(value);
                if needle.is_empty() {
                    return false;
                }
                event.attributes.iter().any(|a| {
                    let normalized = normalize(&a.value);
                    normalized == needle || sub_tokens(&normalized).any(|t| t == needle)
                })
            }
        },
        Query::Contains(needle) => {
            let needle = needle.to_ascii_lowercase();
            event
                .attributes
                .iter()
                .any(|a| a.value.to_ascii_lowercase().contains(&needle))
        }
        Query::Published(published) => event.published == *published,
        Query::DateRange { cmp, instant } => cmp.holds(event.date, *instant),
        Query::ScoreRange { cmp, score } => {
            decayed_score(event).is_some_and(|s| cmp.holds(s, *score))
        }
        Query::Not(inner) => !matches_event(inner, event),
        Query::And(items) => items.iter().all(|q| matches_event(q, event)),
        Query::Or(items) => items.iter().any(|q| matches_event(q, event)),
    }
}

impl From<&cais_misp::store::SearchQuery> for Query {
    /// Compiles the store's flat [`SearchQuery`] filter into the typed
    /// language: the conjunction of its populated fields. The result
    /// evaluates identically to `MispStore::search_linear` — the
    /// equivalence property tests hold the pair together.
    ///
    /// [`SearchQuery`]: cais_misp::store::SearchQuery
    fn from(query: &cais_misp::store::SearchQuery) -> Query {
        let mut items = Vec::new();
        if query.published_only {
            items.push(Query::Published(true));
        }
        if let Some(since) = query.since {
            items.push(Query::DateRange {
                cmp: Cmp::Ge,
                instant: since,
            });
        }
        if let Some(tag) = &query.tag {
            items.push(Query::Term {
                field: Field::Tag,
                value: tag.clone(),
            });
        }
        if let Some(attr_type) = &query.attr_type {
            items.push(Query::Term {
                field: Field::Type,
                value: attr_type.clone(),
            });
        }
        if let Some(needle) = &query.value_contains {
            items.push(Query::Contains(needle.clone()));
        }
        match items.len() {
            0 => Query::All,
            1 => items.pop().expect("one item"),
            _ => Query::And(items),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(field: Field, value: &str) -> Query {
        Query::Term {
            field,
            value: value.into(),
        }
    }

    #[test]
    fn precedence_is_not_over_and_over_or() {
        let q = Query::parse("type:domain AND value:evil OR tag:tlp:amber").unwrap();
        assert_eq!(
            q,
            Query::Or(vec![
                Query::And(vec![
                    term(Field::Type, "domain"),
                    term(Field::Value, "evil")
                ]),
                term(Field::Tag, "tlp:amber"),
            ])
        );
        let q = Query::parse("NOT org:acme AND value:x").unwrap();
        assert_eq!(
            q,
            Query::And(vec![
                Query::Not(Box::new(term(Field::Org, "acme"))),
                term(Field::Value, "x"),
            ])
        );
    }

    #[test]
    fn adjacency_is_implicit_and() {
        assert_eq!(
            Query::parse("type:domain value:evil").unwrap(),
            Query::parse("type:domain AND value:evil").unwrap()
        );
    }

    #[test]
    fn parens_override_precedence() {
        let q = Query::parse("type:domain AND (value:evil OR value:bad)").unwrap();
        assert_eq!(
            q,
            Query::And(vec![
                term(Field::Type, "domain"),
                Query::Or(vec![term(Field::Value, "evil"), term(Field::Value, "bad")]),
            ])
        );
    }

    #[test]
    fn ranges_parse_both_scalar_forms() {
        assert_eq!(
            Query::parse("date>=2021-03-01").unwrap(),
            Query::DateRange {
                cmp: Cmp::Ge,
                instant: Timestamp::from_ymd_hms(2021, 3, 1, 0, 0, 0),
            }
        );
        assert_eq!(
            Query::parse("date<100").unwrap(),
            Query::DateRange {
                cmp: Cmp::Lt,
                instant: Timestamp::from_unix_secs(100),
            }
        );
        assert_eq!(
            Query::parse("score>2.5").unwrap(),
            Query::ScoreRange {
                cmp: Cmp::Gt,
                score: 2.5,
            }
        );
    }

    #[test]
    fn quoted_values_and_machine_tags() {
        assert_eq!(
            Query::parse("tag:\"cais:decay-state=\\\"decayed\\\"\"").unwrap(),
            term(Field::Tag, "cais:decay-state=\"decayed\"")
        );
        assert_eq!(
            Query::parse("category:\"Network activity\"").unwrap(),
            term(Field::Category, "Network activity")
        );
        // Bare machine tags without quotes work too (= and : are word
        // characters).
        assert_eq!(
            Query::parse("tag:tlp:amber").unwrap(),
            term(Field::Tag, "tlp:amber")
        );
    }

    #[test]
    fn bare_words_and_unknown_heads_are_value_terms() {
        assert_eq!(Query::parse("evil").unwrap(), term(Field::Value, "evil"));
        assert_eq!(
            Query::parse("http://x.example/path").unwrap(),
            term(Field::Value, "http://x.example/path")
        );
        assert_eq!(Query::parse("").unwrap(), Query::All);
        assert_eq!(Query::parse("   ").unwrap(), Query::All);
    }

    #[test]
    fn errors_not_panics() {
        for bad in [
            "(",
            ")",
            "a AND",
            "OR b",
            "NOT",
            "date>>1",
            "date>=notadate",
            "score<high",
            "published:maybe",
            "tag:",
            "\"unterminated",
            "a \"b\\q\"",
            "size>=3",
        ] {
            assert!(Query::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "(".repeat(500) + "value:x" + &")".repeat(500);
        assert!(Query::parse(&deep).is_err());
        let nots = "NOT ".repeat(500) + "value:x";
        assert!(Query::parse(&nots).is_err());
        // Within the bound both still parse.
        let ok = "(".repeat(16) + "value:x" + &")".repeat(16);
        assert!(Query::parse(&ok).is_ok());
    }

    #[test]
    fn display_round_trips_structures() {
        let cases = [
            Query::All,
            term(Field::Value, "evil.example"),
            term(Field::Tag, "cais:threat-score=\"2.74\""),
            Query::Contains("needs space".into()),
            Query::Published(false),
            Query::DateRange {
                cmp: Cmp::Le,
                instant: Timestamp::from_ymd_hms(2019, 6, 24, 12, 30, 0),
            },
            Query::ScoreRange {
                cmp: Cmp::Ge,
                score: -1.25,
            },
            Query::Not(Box::new(Query::And(vec![
                term(Field::Type, "domain"),
                Query::Or(vec![term(Field::Value, "a"), term(Field::Value, "b")]),
            ]))),
            Query::Or(vec![
                Query::Or(vec![term(Field::Value, "a"), term(Field::Value, "b")]),
                Query::And(vec![
                    Query::And(vec![term(Field::Value, "c"), term(Field::Value, "d")]),
                    term(Field::Value, "e"),
                ]),
            ]),
        ];
        for query in cases {
            let printed = query.to_string();
            let reparsed = Query::parse(&printed)
                .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
            assert_eq!(reparsed, query, "round-trip of {printed:?}");
        }
    }

    #[test]
    fn search_query_compilation_covers_every_field() {
        use cais_misp::store::SearchQuery;
        let flat = SearchQuery {
            attr_type: Some("domain".into()),
            value_contains: Some("evil".into()),
            tag: Some("tlp:amber".into()),
            since: Some(Timestamp::from_unix_secs(100)),
            published_only: true,
        };
        let compiled = Query::from(&flat);
        let Query::And(items) = &compiled else {
            panic!("expected a conjunction, got {compiled:?}");
        };
        assert_eq!(items.len(), 5);
        assert_eq!(Query::from(&SearchQuery::default()), Query::All);
    }
}
