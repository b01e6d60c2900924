//! Seeded, grammar-aware query corpus.
//!
//! Formulas are sentences of the parser's grammar over a workload's
//! atoms, using `!`, `&`, `|`, `->`, `K{…}`, `Sure{…}`, `E` and `C`, nested
//! at most three operators deep. They are stratified, because what a
//! query costs depends on its operators and on which processes it names:
//! formula `i` takes operator skeleton `i mod 16` from [`SKELETONS`], its
//! process sets go round the workload's processes in turn, and the seed
//! draws its atoms (and, through them, which draws are kept). So every
//! seed asks the same mix of shapes about each process equally often,
//! while the questions themselves differ.
//!
//! Every root is epistemic. A formula is kept only if, after
//! `hpl_runtime::fold`, its root differs from every kept root and is not
//! a subformula of any kept formula, and no kept root is a subformula of
//! it. The satisfaction cache is keyed by those subformulas, so no ask is
//! answered from an entry another ask left behind.

use hpl_core::{parse, Formula, Interpretation};
use std::collections::HashSet;

/// Operator skeletons, in the order formulas take them. `$a` is an atom,
/// `$s` a one-process set, `$p` a two-process set and `$t` a set a
/// nested operator may name. The deepest path has three operators.
const SKELETONS: [&str; 16] = [
    "K$s $a",
    "Sure$p !$a",
    "K$p ($a & $a)",
    "E ($a | $a)",
    "K$s K$t $a",
    "C ($a -> $a)",
    "Sure$s ($a | K$t $a)",
    "K$p !$a",
    "E K$t $a",
    "K$s (K$t $a & $a)",
    "Sure$s $a",
    "C K$t !$a",
    "K$p ($a -> K$t $a)",
    "K$s E $a",
    "Sure$p ($a & !$a)",
    "E !K$t $a",
];

/// Draws of one skeleton before it yields to the next when no new
/// distinct formula turns up.
const DRAWS_PER_SKELETON: usize = 64;

/// The atoms and processes a workload's formulas range over.
pub struct Vocabulary {
    pub processes: usize,
    /// Whether `$p` names two processes; one when false.
    pub pairs: bool,
    pub atoms: Vec<String>,
    /// Sets `$t` may name; empty for any one-process set.
    pub inner_sets: Vec<String>,
    /// Every `rare_every`-th formula is `Sure$s r` over one of these atoms
    /// instead of its skeleton (none when `rare_every` is 0).
    pub rare_atoms: Vec<String>,
    pub rare_every: usize,
}

/// A generated corpus: formula text, its parsed form and a digest of the
/// text.
pub struct Corpus {
    pub texts: Vec<String>,
    pub formulas: Vec<Formula>,
    pub digest: u64,
}

/// Round-robin counters for each kind of process-set placeholder.
#[derive(Default)]
struct Turns {
    single: usize,
    pair: usize,
    inner: usize,
}

/// SplitMix64: small, seedable and the same on every platform.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn pick<'a>(&mut self, xs: &'a [String]) -> &'a str {
        &xs[self.below(xs.len())]
    }
}

/// Generates `count` formulas from `seed` (see the module docs for what
/// makes them distinct).
///
/// # Errors
///
/// A formula that does not parse against `interp` (a vocabulary naming
/// an unregistered atom), or a vocabulary too small to yield `count`
/// formulas.
pub fn generate(
    vocab: &Vocabulary,
    interp: &Interpretation,
    seed: u64,
    count: usize,
) -> Result<Corpus, String> {
    let mut rng = Rng(seed ^ 0x6a09_e667_f3bc_c909);
    let (mut roots, mut subtrees) = (HashSet::new(), HashSet::new());
    let (mut texts, mut formulas) = (Vec::with_capacity(count), Vec::with_capacity(count));
    let (mut skeleton, mut misses) = (0, 0);
    let mut turns = Turns::default();
    while texts.len() < count {
        if misses > DRAWS_PER_SKELETON * SKELETONS.len() {
            return Err(format!("only {} distinct formulas", texts.len()));
        }
        let slot = texts.len();
        let text = if vocab.rare_every > 0 && slot % vocab.rare_every == vocab.rare_every - 1 {
            let set = if vocab.pairs && slot % (2 * vocab.rare_every) >= vocab.rare_every {
                pair(vocab, &mut turns.pair)
            } else {
                single(vocab, &mut turns.single)
            };
            format!("Sure{set} {}", rng.pick(&vocab.rare_atoms))
        } else {
            fill(
                &mut rng,
                &mut turns,
                vocab,
                SKELETONS[skeleton % SKELETONS.len()],
            )
        };
        let f = parse(&text, interp).map_err(|e| format!("corpus formula `{text}`: {e}"))?;
        let folded = hpl_runtime::fold(&f);
        let mut inner = Vec::new();
        proper_subtrees(&folded, &mut inner);
        let epistemic = matches!(
            folded,
            Formula::Knows(..) | Formula::Sure(..) | Formula::Everyone(_) | Formula::Common(_)
        );
        let fresh = epistemic
            && !subtrees.contains(&folded)
            && !roots.contains(&folded)
            && inner.iter().all(|g| !roots.contains(g));
        if fresh {
            subtrees.extend(inner);
            roots.insert(folded);
            texts.push(text);
            formulas.push(f);
            skeleton += 1;
            misses = 0;
        } else {
            misses += 1;
            if misses % DRAWS_PER_SKELETON == 0 {
                skeleton += 1;
            }
        }
    }
    let digest = fnv1a(
        texts
            .iter()
            .flat_map(|t| t.bytes().chain(std::iter::once(b'\n'))),
    );
    Ok(Corpus {
        texts,
        formulas,
        digest,
    })
}

/// FNV-1a over a byte stream.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Replaces a skeleton's placeholders with drawn atoms and the next
/// process sets in turn.
fn fill(rng: &mut Rng, turns: &mut Turns, vocab: &Vocabulary, skeleton: &str) -> String {
    let mut out = String::new();
    let mut rest = skeleton;
    while let Some(at) = rest.find('$') {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at + 1] {
            b'a' => out.push_str(rng.pick(&vocab.atoms)),
            b's' => out.push_str(&single(vocab, &mut turns.single)),
            b'p' if vocab.pairs => out.push_str(&pair(vocab, &mut turns.pair)),
            b'p' => out.push_str(&single(vocab, &mut turns.single)),
            _ if vocab.inner_sets.is_empty() => out.push_str(&single(vocab, &mut turns.inner)),
            _ => {
                let sets = &vocab.inner_sets;
                out.push_str(&sets[turns.inner % sets.len()]);
                turns.inner += 1;
            }
        }
        rest = &rest[at + 2..];
    }
    out.push_str(rest);
    out
}

/// The next one-process set in turn.
fn single(vocab: &Vocabulary, turn: &mut usize) -> String {
    let p = *turn % vocab.processes;
    *turn += 1;
    format!("{{p{p}}}")
}

/// The next two-process set in turn, over all pairs.
fn pair(vocab: &Vocabulary, turn: &mut usize) -> String {
    let n = vocab.processes;
    let mut k = *turn % (n * (n - 1) / 2);
    *turn += 1;
    for i in 0..n {
        let row = n - 1 - i;
        if k < row {
            return format!("{{p{i},p{}}}", i + 1 + k);
        }
        k -= row;
    }
    unreachable!("k indexes one of the n(n-1)/2 pairs")
}

/// Every subformula of `f` except `f` itself.
fn proper_subtrees(f: &Formula, out: &mut Vec<Formula>) {
    let mut children: Vec<&Formula> = Vec::new();
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => {}
        Formula::Not(g)
        | Formula::Knows(_, g)
        | Formula::Sure(_, g)
        | Formula::Everyone(g)
        | Formula::Common(g) => children.push(g),
        Formula::And(gs) | Formula::Or(gs) => children.extend(gs),
        Formula::Implies(a, b) | Formula::Iff(a, b) => children.extend([&**a, &**b]),
    }
    for g in children {
        out.push(g.clone());
        proper_subtrees(g, out);
    }
}
