//! Subword vocabulary and identifier tokenizer.
//!
//! Schema identifiers are split at underscores and camelCase boundaries:
//! `lapTimes` → `lap·Times`, `operations_type` → `operations·_·type`,
//! `raceId` → `race·Id`. Concatenating a token run reproduces the
//! identifier exactly, which is what the `decode` function of the
//! paper's Algorithm 2 relies on.

/// Token identifier (index into a [`Vocab`]).
pub type TokenId = u32;

/// Special tokens of the linking-answer format.
pub const TOK_TABLES: &str = "tables";
pub const TOK_COLUMNS: &str = "columns";
pub const TOK_COLON: &str = ":";
pub const TOK_COMMA: &str = ",";
pub const TOK_DOT: &str = ".";
pub const TOK_END: &str = ";";

/// The format specials in id order: ids `0..6` of every [`Vocab`].
const SPECIALS: [&str; 6] = [
    TOK_TABLES,
    TOK_COLUMNS,
    TOK_COLON,
    TOK_COMMA,
    TOK_DOT,
    TOK_END,
];

/// Split an identifier into subword tokens, as slices of `ident`.
///
/// Boundaries: before every underscore, after every underscore, and at
/// lower→upper camelCase transitions. Digits stick to the preceding
/// fragment.
pub fn split_identifier(ident: &str) -> impl Iterator<Item = &str> {
    let mut rest = ident;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let (piece, tail) = rest.split_at(piece_len(rest));
        rest = tail;
        Some(piece)
    })
}

/// Byte length of the first piece of a non-empty identifier tail.
fn piece_len(rest: &str) -> usize {
    if rest.starts_with('_') {
        return 1;
    }
    let mut prev_lower = false;
    for (at, ch) in rest.char_indices() {
        if at > 0 && (ch == '_' || (ch.is_ascii_uppercase() && prev_lower)) {
            return at;
        }
        prev_lower = ch.is_ascii_lowercase() || ch.is_ascii_digit();
    }
    rest.len()
}

/// A token vocabulary: interned strings with stable ids. Built per
/// database from its schema identifiers plus the format specials.
///
/// The id-order contract: ids `0..6` are the format specials in a
/// fixed order (`tables`, `columns`, `:`, `,`, `.`, `;`), and every
/// other token gets the next id the first time it is interned, so ids
/// follow first-seen order. Generation seeds each token's hidden-state
/// streams from its id, so a vocabulary filled by a generation must
/// give the same ids on every run; the index below is a deterministic
/// open-addressing table (no `RandomState`), and it decides nothing but
/// where a lookup probes.
///
/// Storage is three buffers, none allocated until the first
/// non-special intern: the specials are `&'static str`, the other
/// tokens' texts sit back to back in one arena, and the index holds
/// ids.
#[derive(Debug, Clone, Default)]
pub struct Vocab {
    /// Texts of the interned non-special tokens, back to back.
    arena: String,
    /// Arena end offset of each non-special token, in id order
    /// (token `SPECIALS.len() + i` ends at `ends[i]`).
    ends: Vec<u32>,
    /// Open-addressing index over the non-special tokens: a slot holds
    /// `id + 1`, or 0 when empty. Its length is 0 or a power of two,
    /// and it is at most half full.
    slots: Vec<u32>,
}

/// Slots the index starts with at the first non-special intern.
const MIN_SLOTS: usize = 32;

fn token_hash(s: &str) -> u64 {
    tinynn::rng::stable_hash(s.as_bytes())
}

impl Vocab {
    /// Empty vocabulary containing only the format specials.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a vocabulary covering every identifier of a database.
    pub fn for_database(db: &nanosql::Database) -> Self {
        let mut v = Vocab::new();
        for t in db.tables() {
            for piece in split_identifier(&t.name) {
                v.intern(piece);
            }
            for c in &t.columns {
                for piece in split_identifier(&c.name) {
                    v.intern(piece);
                }
            }
        }
        v
    }

    /// Intern a token string, returning its id.
    pub fn intern(&mut self, s: &str) -> TokenId {
        if let Some(id) = special_id(s) {
            return id;
        }
        let hash = token_hash(s);
        let slot = match self.probe(s, hash) {
            Ok(id) => return id,
            Err(slot) if 2 * (self.ends.len() + 1) <= self.slots.len() => slot,
            Err(_) => {
                self.grow();
                self.probe(s, hash).expect_err("growing adds no token")
            }
        };
        let id = TokenId::try_from(self.len()).expect("fewer than 2^32 tokens");
        self.arena.push_str(s);
        let end = u32::try_from(self.arena.len()).expect("token texts under 4 GiB");
        self.ends.push(end);
        self.slots[slot] = id + 1;
        id
    }

    /// Lookup without interning.
    pub fn get(&self, s: &str) -> Option<TokenId> {
        special_id(s).or_else(|| self.probe(s, token_hash(s)).ok())
    }

    /// `Ok(id)` of `s` (a non-special token), or `Err(slot)`: the empty
    /// slot its probe sequence ends at (`Err(0)` on an empty index).
    fn probe(&self, s: &str, hash: u64) -> Result<TokenId, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                stored if self.text(stored - 1) == s => return Ok(stored - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Double the index (or allocate the first one, with room for the
    /// texts it can index) and re-insert every non-special token.
    fn grow(&mut self) {
        if self.slots.is_empty() {
            self.ends.reserve(MIN_SLOTS / 2);
            self.arena.reserve(8 * MIN_SLOTS / 2);
        }
        let len = (2 * self.slots.len()).max(MIN_SLOTS);
        let mask = len - 1;
        let mut slots = vec![0; len];
        for id in SPECIALS.len() as TokenId..self.len() as TokenId {
            let mut slot = token_hash(self.text(id)) as usize & mask;
            while slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            slots[slot] = id + 1;
        }
        self.slots = slots;
    }

    /// The string for a token id.
    pub fn text(&self, id: TokenId) -> &str {
        let id = id as usize;
        if let Some(special) = SPECIALS.get(id) {
            return special;
        }
        let i = id - SPECIALS.len();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.arena[start..self.ends[i] as usize]
    }

    pub fn len(&self) -> usize {
        SPECIALS.len() + self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tokenize an identifier, interning unseen pieces.
    pub fn encode_identifier(&mut self, ident: &str) -> Vec<TokenId> {
        let mut out = Vec::new();
        self.encode_identifier_into(ident, &mut out);
        out
    }

    /// [`Vocab::encode_identifier`] onto the end of `out`.
    pub(crate) fn encode_identifier_into(&mut self, ident: &str, out: &mut Vec<TokenId>) {
        for piece in split_identifier(ident) {
            out.push(self.intern(piece));
        }
    }

    /// Tokenize an identifier without interning; `None` if any piece is
    /// out-of-vocabulary.
    pub fn try_encode_identifier(&self, ident: &str) -> Option<Vec<TokenId>> {
        split_identifier(ident).map(|p| self.get(p)).collect()
    }

    /// Concatenate token texts (the `decode` primitive).
    pub fn concat(&self, ids: &[TokenId]) -> String {
        let mut out = String::new();
        for &id in ids {
            out.push_str(self.text(id));
        }
        out
    }
}

/// The id of a format special, `None` for any other text.
fn special_id(s: &str) -> Option<TokenId> {
    SPECIALS.iter().position(|&t| t == s).map(|i| i as TokenId)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn pieces(ident: &str) -> Vec<&str> {
        split_identifier(ident).collect()
    }

    /// The tokenizer as it was before pieces became slices of the
    /// identifier: the oracle for [`split_identifier`].
    fn reference_split(ident: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut current = String::new();
        let mut prev_lower = false;
        for ch in ident.chars() {
            if ch == '_' {
                if !current.is_empty() {
                    out.push(std::mem::take(&mut current));
                }
                out.push("_".to_string());
                prev_lower = false;
            } else if ch.is_ascii_uppercase() && prev_lower {
                out.push(std::mem::take(&mut current));
                current.push(ch);
                prev_lower = false;
            } else {
                prev_lower = ch.is_ascii_lowercase() || ch.is_ascii_digit();
                current.push(ch);
            }
        }
        if !current.is_empty() {
            out.push(current);
        }
        out
    }

    /// The vocabulary as it was before the arena index: one `String`
    /// per token and a `HashMap` from text to id. The model [`Vocab`]
    /// is held to.
    struct ModelVocab {
        tokens: Vec<String>,
        index: HashMap<String, TokenId>,
    }

    impl ModelVocab {
        fn new() -> Self {
            let mut v = ModelVocab {
                tokens: Vec::new(),
                index: HashMap::new(),
            };
            for s in SPECIALS {
                v.intern(s);
            }
            v
        }

        fn intern(&mut self, s: &str) -> TokenId {
            if let Some(&id) = self.index.get(s) {
                return id;
            }
            let id = self.tokens.len() as TokenId;
            self.tokens.push(s.to_string());
            self.index.insert(s.to_string(), id);
            id
        }

        fn get(&self, s: &str) -> Option<TokenId> {
            self.index.get(s).copied()
        }

        fn encode_identifier(&mut self, ident: &str) -> Vec<TokenId> {
            reference_split(ident)
                .iter()
                .map(|p| self.intern(p))
                .collect()
        }

        fn try_encode_identifier(&self, ident: &str) -> Option<Vec<TokenId>> {
            reference_split(ident).iter().map(|p| self.get(p)).collect()
        }

        fn concat(&self, ids: &[TokenId]) -> String {
            ids.iter()
                .map(|&id| self.tokens[id as usize].as_str())
                .collect()
        }
    }

    /// An identifier built from fragments that exercise every boundary
    /// rule: `_` runs, camelCase, digits, upper-case runs, non-ASCII,
    /// the specials' own texts and the empty string.
    fn identifier(rng: &mut TestRng) -> String {
        const FRAGMENTS: [&str; 22] = [
            "", "_", "__", "lap", "Times", "ID", "URLPath", "x2", "9", "é", "Ü", "日本", "🦀",
            "tables", "columns", ".", ",", ":", ";", "aB", "Ab", "q",
        ];
        const CHARS: [char; 8] = ['a', 'Z', '_', '7', 'é', 'Σ', '.', 'k'];
        let mut out = String::new();
        for _ in 0..rng.below(5) {
            if rng.next_bool() {
                out.push_str(FRAGMENTS[rng.below(FRAGMENTS.len())]);
            } else {
                for _ in 0..rng.below(4) {
                    out.push(CHARS[rng.below(CHARS.len())]);
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The same random call sequence on [`Vocab`] and on the
        /// `HashMap` model gives the same ids and texts, and the slice
        /// tokenizer cuts the same pieces as the reference one.
        #[test]
        fn vocab_matches_the_hashmap_model(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let mut vocab = Vocab::new();
            let mut model = ModelVocab::new();
            for _ in 0..rng.below(300) {
                let ident = identifier(&mut rng);
                match rng.below(5) {
                    0 => prop_assert_eq!(vocab.intern(&ident), model.intern(&ident)),
                    1 => prop_assert_eq!(vocab.get(&ident), model.get(&ident)),
                    2 => {
                        prop_assert_eq!(pieces(&ident), reference_split(&ident));
                        prop_assert_eq!(vocab.encode_identifier(&ident), model.encode_identifier(&ident));
                    }
                    3 => prop_assert_eq!(
                        vocab.try_encode_identifier(&ident),
                        model.try_encode_identifier(&ident)
                    ),
                    _ => {
                        let ids: Vec<TokenId> = (0..rng.below(6))
                            .map(|_| rng.below(vocab.len()) as TokenId)
                            .collect();
                        prop_assert_eq!(vocab.concat(&ids), model.concat(&ids));
                    }
                }
                prop_assert_eq!(vocab.len(), model.tokens.len());
            }
            for id in 0..vocab.len() as TokenId {
                prop_assert_eq!(vocab.text(id), model.tokens[id as usize].as_str());
            }
        }
    }

    #[test]
    fn splits_camel_case() {
        assert_eq!(pieces("lapTimes"), vec!["lap", "Times"]);
        assert_eq!(pieces("raceId"), vec!["race", "Id"]);
        assert_eq!(pieces("satscores"), vec!["satscores"]);
    }

    #[test]
    fn splits_underscores() {
        assert_eq!(pieces("operations_type"), vec!["operations", "_", "type"]);
        assert_eq!(pieces("a_b_c"), vec!["a", "_", "b", "_", "c"]);
    }

    #[test]
    fn splits_mixed_and_abbreviations() {
        assert_eq!(pieces("EdOps"), vec!["Ed", "Ops"]);
        assert_eq!(pieces("Rtype"), vec!["Rtype"]);
    }

    #[test]
    fn concat_inverts_split() {
        for ident in [
            "lapTimes",
            "operations_type",
            "EdOps",
            "raceId",
            "frpm",
            "yearmonth",
        ] {
            let mut v = Vocab::new();
            let ids = v.encode_identifier(ident);
            assert_eq!(v.concat(&ids), ident, "round-trip failed for {ident}");
        }
    }

    #[test]
    fn interning_is_idempotent() {
        let mut v = Vocab::new();
        let a = v.intern("race");
        let b = v.intern("race");
        assert_eq!(a, b);
        assert_eq!(v.text(a), "race");
    }

    #[test]
    fn specials_are_preinterned() {
        let v = Vocab::new();
        for s in [
            TOK_TABLES,
            TOK_COLUMNS,
            TOK_COLON,
            TOK_COMMA,
            TOK_DOT,
            TOK_END,
        ] {
            assert!(v.get(s).is_some(), "{s} missing");
        }
    }

    #[test]
    fn try_encode_rejects_oov() {
        let v = Vocab::new();
        assert!(v.try_encode_identifier("unseen").is_none());
    }

    #[test]
    fn database_vocab_covers_all_identifiers() {
        use nanosql::schema::{ColumnDef, TableSchema};
        use nanosql::DataType;
        let mut db = nanosql::Database::new("d");
        db.create_table(
            TableSchema::new("lapTimes")
                .column(ColumnDef::new("raceId", DataType::Int))
                .column(ColumnDef::new("operations_type", DataType::Text)),
        )
        .unwrap();
        let v = Vocab::for_database(&db);
        assert!(v.try_encode_identifier("lapTimes").is_some());
        assert!(v.try_encode_identifier("raceId").is_some());
        assert!(v.try_encode_identifier("operations_type").is_some());
    }
}
