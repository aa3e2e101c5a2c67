//! Answer linearization and decoding.
//!
//! The schema-linking model's answer is a token stream:
//!
//! ```text
//! tables : races , lapTimes ;
//! columns : lapTimes . lap , lapTimes . time , races . name ;
//! ```
//!
//! Elements appear in canonical (sorted) order — the order the gold
//! annotations are stored in — so teacher-forced comparison against the
//! gold stream is positional. `decode_elements` is the paper's `decode`:
//! it folds a token stream back into the set of complete element names,
//! tolerating a trailing partial element (returned separately, since
//! Algorithm 2 needs to complete it).

use crate::vocab::{
    TokenId, Vocab, TOK_COLON, TOK_COLUMNS, TOK_COMMA, TOK_DOT, TOK_END, TOK_TABLES,
};

/// Tokenize one element name. Table elements are identifiers; column
/// elements are `table.column` (the dot becomes its own token).
pub fn element_tokens(vocab: &mut Vocab, element: &str) -> Vec<TokenId> {
    let mut out = Vec::new();
    let (table, column) = split_element(element);
    push_element_tokens(vocab, table, column, &mut out);
    out
}

/// An element name's table and, for a column element, its column.
/// Schema identifiers hold no `.`, so the first one separates them.
pub(crate) fn split_element(element: &str) -> (&str, Option<&str>) {
    match element.split_once('.') {
        Some((table, column)) => (table, Some(column)),
        None => (element, None),
    }
}

/// [`element_tokens`] of the element `table` (or `table.column`),
/// pushed onto the end of `out`.
pub(crate) fn push_element_tokens(
    vocab: &mut Vocab,
    table: &str,
    column: Option<&str>,
    out: &mut Vec<TokenId>,
) {
    vocab.encode_identifier_into(table, out);
    if let Some(column) = column {
        out.push(vocab.intern(TOK_DOT));
        vocab.encode_identifier_into(column, out);
    }
}

fn linearize<'e>(
    vocab: &mut Vocab,
    header: &str,
    elements: impl ExactSizeIterator<Item = (&'e str, Option<&'e str>)>,
) -> Vec<TokenId> {
    let mut out = Vec::with_capacity(2 + elements.len() * 4);
    out.push(vocab.intern(header));
    out.push(vocab.intern(TOK_COLON));
    for (i, (table, column)) in elements.enumerate() {
        if i > 0 {
            out.push(vocab.intern(TOK_COMMA));
        }
        push_element_tokens(vocab, table, column, &mut out);
    }
    out.push(vocab.intern(TOK_END));
    out
}

/// `tables : t1 , t2 ;`
pub fn linearize_tables(vocab: &mut Vocab, tables: &[String]) -> Vec<TokenId> {
    linearize(vocab, TOK_TABLES, tables.iter().map(|t| (t.as_str(), None)))
}

/// `columns : t1 . c1 , t2 . c2 ;` — input pairs `(table, column)`.
pub fn linearize_columns(vocab: &mut Vocab, columns: &[(String, String)]) -> Vec<TokenId> {
    linearize(
        vocab,
        TOK_COLUMNS,
        columns.iter().map(|(t, c)| (t.as_str(), Some(c.as_str()))),
    )
}

/// Decode a token stream into complete element names plus the trailing
/// partial element's tokens (empty when the stream ends cleanly).
///
/// The stream may or may not include the `header :` prefix and the
/// terminating `;` — Algorithm 2 calls decode on arbitrary prefixes.
pub fn decode_elements(vocab: &Vocab, tokens: &[TokenId]) -> (Vec<String>, Vec<TokenId>) {
    let comma = vocab.get(TOK_COMMA);
    let end = vocab.get(TOK_END);
    let colon = vocab.get(TOK_COLON);
    let header_tables = vocab.get(TOK_TABLES);
    let header_columns = vocab.get(TOK_COLUMNS);

    let mut elements = Vec::new();
    let mut current: Vec<TokenId> = Vec::new();
    let mut iter = tokens.iter().copied().peekable();

    // Optional header.
    if let Some(&first) = tokens.first() {
        if Some(first) == header_tables || Some(first) == header_columns {
            iter.next();
            if iter.peek().copied() == colon {
                iter.next();
            }
        }
    }

    for t in iter {
        if Some(t) == comma || Some(t) == end {
            if !current.is_empty() {
                elements.push(vocab.concat(&current));
                current.clear();
            }
            continue;
        }
        if Some(t) == colon {
            continue; // stray colon (robustness)
        }
        current.push(t);
    }
    (elements, current)
}

/// Streaming [`decode_elements`]: push one token at a time and read the
/// complete elements / trailing partial so far. After `k` pushes the
/// state equals `decode_elements(vocab, &tokens[..k])` exactly — which
/// is what lets Algorithm 2's trace back consume a stream token by
/// token instead of re-decoding the whole prefix on every step (the
/// former path was quadratic in the stream length).
#[derive(Debug)]
pub struct IncrementalDecoder<'a> {
    vocab: &'a Vocab,
    /// Special-token ids, resolved once (`None` = not in this vocab).
    comma: Option<TokenId>,
    end: Option<TokenId>,
    colon: Option<TokenId>,
    header_tables: Option<TokenId>,
    header_columns: Option<TokenId>,
    /// Tokens consumed so far (drives the position-0 header skip).
    n_seen: usize,
    elements: Vec<String>,
    partial: Vec<TokenId>,
}

impl<'a> IncrementalDecoder<'a> {
    pub fn new(vocab: &'a Vocab) -> Self {
        Self {
            vocab,
            comma: vocab.get(TOK_COMMA),
            end: vocab.get(TOK_END),
            colon: vocab.get(TOK_COLON),
            header_tables: vocab.get(TOK_TABLES),
            header_columns: vocab.get(TOK_COLUMNS),
            n_seen: 0,
            elements: Vec::new(),
            partial: Vec::new(),
        }
    }

    /// Consume the next token of the stream.
    pub fn push(&mut self, t: TokenId) {
        let first = self.n_seen == 0;
        self.n_seen += 1;
        if first && (Some(t) == self.header_tables || Some(t) == self.header_columns) {
            // A position-0 header is dropped; a header token anywhere
            // else is ordinary content, exactly like the batch decoder.
            return;
        }
        if Some(t) == self.colon {
            // The header colon and stray colons are both dropped.
            return;
        }
        if Some(t) == self.comma || Some(t) == self.end {
            if !self.partial.is_empty() {
                self.elements.push(self.vocab.concat(&self.partial));
                self.partial.clear();
            }
            return;
        }
        self.partial.push(t);
    }

    /// Complete elements decoded so far (in stream order).
    pub fn elements(&self) -> &[String] {
        &self.elements
    }

    /// Trailing partial element's tokens (empty at a clean boundary).
    pub fn partial(&self) -> &[TokenId] {
        &self.partial
    }

    /// Number of tokens consumed.
    pub fn n_seen(&self) -> usize {
        self.n_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_roundtrip() {
        let mut v = Vocab::new();
        let tables = vec!["lapTimes".to_string(), "races".to_string()];
        let toks = linearize_tables(&mut v, &tables);
        let (decoded, partial) = decode_elements(&v, &toks);
        assert_eq!(decoded, tables);
        assert!(partial.is_empty());
    }

    #[test]
    fn columns_roundtrip() {
        let mut v = Vocab::new();
        let cols = vec![
            ("lapTimes".to_string(), "time".to_string()),
            ("races".to_string(), "name".to_string()),
        ];
        let toks = linearize_columns(&mut v, &cols);
        let (decoded, partial) = decode_elements(&v, &toks);
        assert_eq!(decoded, vec!["lapTimes.time", "races.name"]);
        assert!(partial.is_empty());
    }

    #[test]
    fn decode_handles_partial_suffix() {
        let mut v = Vocab::new();
        let tables = vec!["lapTimes".to_string(), "raceDays".to_string()];
        let toks = linearize_tables(&mut v, &tables);
        // Drop the final ";" and the trailing "Days" token: the stream
        // ends mid-element with the bare "race" subword.
        let cut = &toks[..toks.len() - 2];
        let (decoded, partial) = decode_elements(&v, cut);
        assert_eq!(decoded, vec!["lapTimes"]);
        assert_eq!(v.concat(&partial), "race");
    }

    #[test]
    fn decode_without_header() {
        let mut v = Vocab::new();
        let ids = element_tokens(&mut v, "races");
        let (decoded, partial) = decode_elements(&v, &ids);
        assert!(decoded.is_empty(), "no separator yet → still partial");
        assert_eq!(v.concat(&partial), "races");
    }

    #[test]
    fn empty_list_linearizes_to_header_and_end() {
        let mut v = Vocab::new();
        let toks = linearize_tables(&mut v, &[]);
        let (decoded, partial) = decode_elements(&v, &toks);
        assert!(decoded.is_empty());
        assert!(partial.is_empty());
        assert_eq!(toks.len(), 3); // tables : ;
    }

    #[test]
    fn column_elements_tokenize_with_dot() {
        let mut v = Vocab::new();
        let ids = element_tokens(&mut v, "lapTimes.raceId");
        let texts: Vec<&str> = ids.iter().map(|&i| v.text(i)).collect();
        assert_eq!(texts, vec!["lap", "Times", ".", "race", "Id"]);
    }

    #[test]
    fn incremental_decoder_matches_batch_on_every_prefix() {
        let mut v = Vocab::new();
        let cols = vec![
            ("lapTimes".to_string(), "time".to_string()),
            ("races".to_string(), "name".to_string()),
            ("races".to_string(), "raceId".to_string()),
        ];
        let toks = linearize_columns(&mut v, &cols);
        let mut dec = IncrementalDecoder::new(&v);
        for (k, &t) in toks.iter().enumerate() {
            dec.push(t);
            let (batch_elems, batch_partial) = decode_elements(&v, &toks[..k + 1]);
            assert_eq!(dec.elements(), &batch_elems[..], "prefix {}", k + 1);
            assert_eq!(dec.partial(), &batch_partial[..], "prefix {}", k + 1);
            assert_eq!(dec.n_seen(), k + 1);
        }
    }

    #[test]
    fn incremental_decoder_treats_late_header_as_content() {
        // A header token beyond position 0 is ordinary content in the
        // batch decoder; the streaming decoder must agree.
        let mut v = Vocab::new();
        let races = v.encode_identifier("races");
        let header = v.get(TOK_TABLES).unwrap();
        let comma = v.get(TOK_COMMA).unwrap();
        let stream: Vec<TokenId> = races
            .iter()
            .copied()
            .chain([comma, header, comma])
            .collect();
        let (batch, _) = decode_elements(&v, &stream);
        let mut dec = IncrementalDecoder::new(&v);
        for &t in &stream {
            dec.push(t);
        }
        assert_eq!(dec.elements(), &batch[..]);
        assert_eq!(batch, vec!["races".to_string(), TOK_TABLES.to_string()]);
    }
}
