//! The one reader for Lumos spec files: search spaces
//! (`lumos search --space`, `lumos_search::SpecFile`) and
//! fault-scenario mixes (`--faults`, `lumos_cluster::FaultSpec`). Both
//! are written in a small TOML subset; the workspace builds offline,
//! so there is no `toml` crate.
//!
//! # Grammar
//!
//! * `#` starts a comment that runs to the end of the line, except
//!   inside a `"string"`. Blank lines are ignored.
//! * `key = value` sets a key of the current table. `-` and `_`
//!   count as the same character in keys (`max-gpus` and `max_gpus`
//!   are one key), and a key its schema does not know is an error.
//! * A table may set each key once; a second setting is an error.
//! * `[[name]]` opens the next instance of the table `name`. Keys
//!   before the first header belong to the top-level table. Each
//!   schema names the tables it takes; a file without tables takes
//!   none, and single-bracket `[name]` tables do not exist.
//! * A value is a `"string"` (no escapes), `true` or `false`, an
//!   array `[a, b, …]` (items may be arrays, a trailing comma is
//!   allowed), or a number. A number is kept as written and parsed by
//!   the schema, so an integer key accepts what Rust's `u32::from_str`
//!   accepts and a float key what `f64::from_str` accepts.
//!
//! ```toml
//! # a fault spec
//! version = 1
//!
//! [[straggler]]
//! probability = 0.4   # fires in 40% of replicas
//! slowdown = 1.35
//! ```
//!
//! A schema takes its keys out of each [`Table`] with typed getters
//! and ends with [`Table::finish`], which rejects any key it did not
//! take. Every failure, of syntax or of schema, is one [`SpecError`]
//! naming the line, the table instance and the key.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// How deeply arrays may nest. The schemas need two levels; the bound
/// keeps a hostile line from exhausting the stack of the recursive
/// array reader.
const MAX_NESTING: usize = 8;

/// A spec failure and where it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line: the line that sets the key, or the table's header
    /// line when a required key is missing.
    pub line: usize,
    /// The `[[name]]` table and its 1-based instance; `None` for the
    /// top-level table.
    pub table: Option<(&'static str, usize)>,
    /// The key concerned, as the file spells it (as the schema does
    /// when a required key is missing).
    pub key: Option<String>,
    /// What was wrong.
    pub detail: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        if let Some((name, index)) = self.table {
            write!(f, "[[{name}]] #{index}: ")?;
        }
        if let Some(key) = &self.key {
            write!(f, "key `{key}`: ")?;
        }
        f.write_str(&self.detail)
    }
}

impl Error for SpecError {}

/// One value as the file writes it.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A number literal, not yet parsed.
    Number(String),
    /// `true` or `false`.
    Bool(bool),
    /// The text between the quotes.
    Str(String),
    /// `[a, b, …]`.
    Array(Vec<Value>),
}

impl Value {
    fn expected(&self, what: &str) -> String {
        match self {
            Value::Number(n) => format!("expected {what}, got `{n}`"),
            Value::Bool(b) => format!("expected {what}, got `{b}`"),
            Value::Str(s) => format!("expected {what}, got \"{s}\""),
            Value::Array(_) => format!("expected {what}, got an array"),
        }
    }

    /// An integer, parsed from the literal by `T::from_str`.
    pub fn int<T: FromStr>(&self) -> Result<T, String> {
        match self {
            Value::Number(n) => n.parse().map_err(|_| self.expected("an integer")),
            other => Err(other.expected("an integer")),
        }
    }

    /// A number, parsed from the literal by `f64::from_str`.
    pub fn float(&self) -> Result<f64, String> {
        match self {
            Value::Number(n) => n.parse().map_err(|_| self.expected("a number")),
            other => Err(other.expected("a number")),
        }
    }

    /// `true` or `false`.
    pub fn boolean(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(other.expected("a boolean")),
        }
    }

    /// The text of a `"string"`.
    pub fn string(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(other.expected("a \"string\"")),
        }
    }

    /// The items of an array.
    pub fn array(&self) -> Result<&[Value], String> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(other.expected("an array")),
        }
    }

    /// An array whose every item converts with `item`.
    pub fn list<T>(&self, item: impl Fn(&Value) -> Result<T, String>) -> Result<Vec<T>, String> {
        self.array()?.iter().map(item).collect()
    }
}

#[derive(Debug)]
struct Entry {
    key: String,
    line: usize,
    value: Value,
}

/// The keys of one table instance not yet taken, in file order.
#[derive(Debug)]
pub struct Table {
    id: Option<(&'static str, usize)>,
    line: usize,
    entries: Vec<Entry>,
}

/// `-` and `_` count as the same character in keys.
fn same_key(a: &str, b: &str) -> bool {
    a.replace('-', "_") == b.replace('-', "_")
}

impl Table {
    fn new(id: Option<(&'static str, usize)>, line: usize) -> Self {
        Table {
            id,
            line,
            entries: Vec::new(),
        }
    }

    /// An error at `line` of this table.
    fn at(&self, line: usize, key: Option<&str>, detail: impl Into<String>) -> SpecError {
        SpecError {
            line,
            table: self.id,
            key: key.map(str::to_string),
            detail: detail.into(),
        }
    }

    /// The `[[name]]` of this instance; `None` for the top-level table.
    pub fn name(&self) -> Option<&'static str> {
        self.id.map(|(name, _)| name)
    }

    /// Takes `key` and converts its value with `convert`, which also
    /// checks its range; `Ok(None)` when the table does not set it.
    /// A failure of `convert` is located at the key's line.
    pub fn get<T>(
        &mut self,
        key: &str,
        convert: impl FnOnce(&Value) -> Result<T, String>,
    ) -> Result<Option<T>, SpecError> {
        let Some(i) = self.entries.iter().position(|e| same_key(&e.key, key)) else {
            return Ok(None);
        };
        let entry = self.entries.remove(i);
        convert(&entry.value)
            .map(Some)
            .map_err(|detail| self.at(entry.line, Some(&entry.key), detail))
    }

    /// [`Table::get`] for a key the schema requires: its absence is
    /// an error located at the table's header.
    pub fn require<T>(
        &mut self,
        key: &str,
        convert: impl FnOnce(&Value) -> Result<T, String>,
    ) -> Result<T, SpecError> {
        self.get(key, convert)?
            .ok_or_else(|| self.at(self.line, Some(key), "required but missing"))
    }

    /// Ends the schema's pass over this table, failing on the first
    /// key no getter took.
    pub fn finish(self) -> Result<(), SpecError> {
        match self.entries.first() {
            Some(e) => Err(self.at(e.line, Some(&e.key), "unknown key")),
            None => Ok(()),
        }
    }
}

/// A read file: the top-level table, then every `[[name]]` instance.
#[derive(Debug)]
pub struct Doc {
    /// The keys before the first header.
    pub top: Table,
    /// The `[[name]]` instances in file order.
    pub tables: Vec<Table>,
}

/// Reads `text`, taking `[[name]]` headers only for the names in
/// `tables` (none for a flat file). Fails on the first line that
/// breaks the grammar, names an unknown table, or sets a key twice.
pub fn parse(text: &str, tables: &[&'static str]) -> Result<Doc, SpecError> {
    let mut doc = Doc {
        top: Table::new(None, 1),
        tables: Vec::new(),
    };
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let content = strip_comment(raw).trim();
        if content.is_empty() {
            continue;
        }
        if content.starts_with('[') {
            let header = content
                .strip_prefix("[[")
                .and_then(|r| r.strip_suffix("]]"));
            let detail = match header.map(str::trim) {
                _ if tables.is_empty() => "tables are not supported; use flat keys".to_string(),
                Some(name) => match tables.iter().find(|&&t| t == name) {
                    Some(&name) => {
                        let index = doc.tables.iter().filter(|t| t.name() == Some(name)).count();
                        doc.tables.push(Table::new(Some((name, index + 1)), line));
                        continue;
                    }
                    None => format!(
                        "unknown table `[[{name}]]` (expected {})",
                        tables.join(", ")
                    ),
                },
                None => format!("`{content}` is not an array-of-tables header (write `[[name]]`)"),
            };
            return Err(doc.top.at(line, None, detail));
        }
        let table = doc.tables.last_mut().unwrap_or(&mut doc.top);
        let Some((key, value)) = content.split_once('=') else {
            let detail = format!("expected `key = value`, got `{content}`");
            return Err(table.at(line, None, detail));
        };
        let key = key.trim();
        if let Some(first) = table.entries.iter().find(|e| same_key(&e.key, key)) {
            let detail = format!("set twice (first on line {})", first.line);
            return Err(table.at(line, Some(key), detail));
        }
        let (value, rest) = value_prefix(value, 0).map_err(|e| table.at(line, Some(key), e))?;
        if !rest.trim().is_empty() {
            let detail = format!("unexpected `{}` after the value", rest.trim());
            return Err(table.at(line, Some(key), detail));
        }
        table.entries.push(Entry {
            key: key.to_string(),
            line,
            value,
        });
    }
    Ok(doc)
}

/// Drops a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Reads one value off the front of `s`, inside `depth` arrays;
/// returns it and the unread rest.
fn value_prefix(s: &str, depth: usize) -> Result<(Value, &str), String> {
    let s = s.trim_start();
    if let Some(body) = s.strip_prefix('"') {
        let end = body.find('"').ok_or("unterminated string")?;
        return Ok((Value::Str(body[..end].to_string()), &body[end + 1..]));
    }
    if let Some(mut rest) = s.strip_prefix('[') {
        if depth == MAX_NESTING {
            return Err(format!("arrays nest deeper than {MAX_NESTING} levels"));
        }
        let mut items = Vec::new();
        loop {
            rest = rest.trim_start();
            if let Some(after) = rest.strip_prefix(']') {
                return Ok((Value::Array(items), after));
            }
            let (item, after) = value_prefix(rest, depth + 1)?;
            items.push(item);
            rest = after.trim_start();
            match rest.strip_prefix(',') {
                Some(after) => rest = after,
                None if rest.starts_with(']') => {}
                None => return Err("expected `,` or `]` after an array item".to_string()),
            }
        }
    }
    let end = s.find([',', ']']).unwrap_or(s.len());
    let value = match s[..end].trim() {
        "" => return Err("missing value".to_string()),
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        literal => Value::Number(literal.to_string()),
    };
    Ok((value, &s[end..]))
}
