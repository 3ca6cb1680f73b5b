//! The three workloads, their fixed key pools, and the seeded request
//! generator.
//!
//! A run is a sequence of *passes*. Every pass starts a fresh daemon and
//! sends one generated stream. The seed decides the order of the
//! requests, which client sends what, and which cached keys are hit; it
//! never decides *which* keys are searched, so every pass does the same
//! search work and the deterministic metrics do not depend on the seed.

use lego_served::TuneSpec;

/// The devices every pool spreads its keys over.
const DEVICES: [&str; 3] = ["a100", "h100", "mi300"];

/// Exhaustive (legacy-space) keys: all six families. Every size is one
/// where each legacy tile and block divides the problem; stencils stay
/// at n ≤ 16 so one family cannot swamp a pass. The mix is chosen so
/// the latency percentiles land inside dense groups of similar-cost
/// keys (12 under 3 ms, 15 at 6–13 ms, 9 at 25–65 ms, 3 above 100 ms),
/// not in the gaps between groups, where a small shift would move
/// them a long way.
const EXHAUSTIVE_SHAPES: [&str; 13] = [
    "softmax(m=256,n=1024)",
    "layernorm-fwd(m=256,n=1024)",
    "lud(n=256,bs=16)",
    "matmul(n=512)",
    "transpose(n=128)",
    "transpose(n=256)",
    "transpose(n=512)",
    "stencil(star-7pt,n=8)",
    "matmul(n=1024)",
    "stencil(cube-27pt,n=8)",
    "nw(n=112,b=16)",
    "stencil(star-7pt,n=16)",
    "nw(n=224,b=16)",
];

/// Budgeted keys of `persist-mix`: every family but stencil.
const ANNEAL_SHAPES: [&str; 11] = [
    "matmul(n=512)",
    "matmul(n=1024)",
    "transpose(n=256)",
    "transpose(n=512)",
    "nw(n=64,b=16)",
    "nw(n=112,b=16)",
    "lud(n=256,bs=16)",
    "lud(n=512,bs=16)",
    "softmax(m=256,n=1024)",
    "layernorm-fwd(m=256,n=1024)",
    "layernorm-bwd(m=128,n=512)",
];

/// Anneal budget of `persist-mix` requests.
const ANNEAL_BUDGET: usize = 64;

/// `warm-hits`: rounds of the whole pool each client sends per pass.
const WARM_ROUNDS: usize = 200;

/// `warm-hits`: client 0 scrapes `metrics` after every this many tunes.
const SCRAPE_EVERY: usize = 100;

/// `persist-mix`: memory hits per pass on cached keys.
const MIX_HITS: usize = 80;

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Distinct exhaustive searches, one client, no cache or sidecar.
    ColdSearch,
    /// Memory-tier hits from a preloaded cache, two clients.
    WarmHits,
    /// Hits, first-time anneal searches and coalesced pairs against a
    /// persistent cache and memo sidecar, two clients.
    PersistMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ColdSearch,
        Workload::WarmHits,
        Workload::PersistMix,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSearch => "cold-search",
            Workload::WarmHits => "warm-hits",
            Workload::PersistMix => "persist-mix",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Concurrent client connections (and daemon workers).
    pub fn clients(self) -> usize {
        match self {
            Workload::ColdSearch => 1,
            Workload::WarmHits | Workload::PersistMix => 2,
        }
    }

    /// Fewest tune requests a run sends, so that the reported latency
    /// percentiles have enough samples beyond them.
    pub fn min_requests(self) -> usize {
        match self {
            Workload::ColdSearch => 100,
            Workload::WarmHits | Workload::PersistMix => 1000,
        }
    }

    /// The workload's fixed key pool.
    pub fn pool(self) -> Vec<TuneSpec> {
        let (shapes, anneal): (&[&str], bool) = match self {
            Workload::ColdSearch | Workload::WarmHits => (&EXHAUSTIVE_SHAPES, false),
            Workload::PersistMix => (&ANNEAL_SHAPES, true),
        };
        let mut pool = Vec::new();
        for shape in shapes {
            for device in DEVICES {
                let mut spec = TuneSpec::workload(*shape);
                spec.device = Some(device.to_string());
                if anneal {
                    spec.strategy = Some("anneal".to_string());
                    spec.budget = Some(ANNEAL_BUDGET);
                    spec.space = Some("enlarged".to_string());
                }
                pool.push(spec);
            }
        }
        pool
    }

    /// Whether pool key `i` sits in the prepared cache file. Only
    /// `persist-mix` splits its pool: every other key is cached.
    pub fn cached(self, i: usize) -> bool {
        match self {
            Workload::ColdSearch => false,
            Workload::WarmHits => true,
            Workload::PersistMix => i.is_multiple_of(2),
        }
    }

    /// The request stream of pass `pass` under `seed`, one list per
    /// client.
    pub fn stream(self, seed: u64, pass: u64) -> Vec<Vec<Item>> {
        let mut rng = Rng::new(seed, pass);
        let n = self.pool().len();
        match self {
            Workload::ColdSearch => {
                let mut order: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut order);
                vec![order.into_iter().map(Item::search).collect()]
            }
            Workload::WarmHits => (0..self.clients())
                .map(|client| {
                    let mut out = Vec::new();
                    for _ in 0..WARM_ROUNDS {
                        let mut order: Vec<usize> = (0..n).collect();
                        rng.shuffle(&mut order);
                        for key in order {
                            out.push(Item::hit(key));
                            if client == 0 && out.len() % (SCRAPE_EVERY + 1) == SCRAPE_EVERY {
                                out.push(Item::Scrape);
                            }
                        }
                    }
                    out
                })
                .collect(),
            Workload::PersistMix => {
                let cached: Vec<usize> = (0..n).filter(|&i| self.cached(i)).collect();
                let uncached: Vec<usize> = (0..n).filter(|&i| !self.cached(i)).collect();
                // Every third uncached key is sent by both clients at
                // once; the others by one client.
                let mut events: Vec<Event> = uncached
                    .iter()
                    .enumerate()
                    .map(|(j, &key)| {
                        if j % 3 == 2 {
                            Event::Pair(key)
                        } else {
                            Event::Solo(key)
                        }
                    })
                    .collect();
                // Every cached key once, then random cached keys.
                events.extend(cached.iter().map(|&key| Event::Hit(key)));
                events.extend(
                    (cached.len()..MIX_HITS).map(|_| Event::Hit(cached[rng.below(cached.len())])),
                );
                rng.shuffle(&mut events);
                // The seed orders the events; solo searches and hits are
                // dealt to the clients alternately, so both carry the same
                // count of each in every pass.
                let mut clients = vec![Vec::new(), Vec::new()];
                let (mut solos, mut hits) = (0, 0);
                for ev in events {
                    match ev {
                        Event::Solo(key) => {
                            clients[solos % 2].push(Item::search(key));
                            solos += 1;
                        }
                        Event::Hit(key) => {
                            clients[hits % 2].push(Item::hit(key));
                            hits += 1;
                        }
                        Event::Pair(key) => {
                            for c in &mut clients {
                                c.push(Item::Pair { key });
                            }
                        }
                    }
                }
                clients
            }
        }
    }
}

/// One `persist-mix` event before it is dealt to clients.
#[derive(Clone, Copy)]
enum Event {
    Solo(usize),
    Hit(usize),
    Pair(usize),
}

/// What a request is expected to meet in the daemon.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expect {
    /// A key the daemon holds in memory.
    Hit,
    /// A key the daemon has not seen yet in this pass.
    Search,
}

/// One step of a client's stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Item {
    /// A `tune` for pool key `key`.
    Tune {
        /// Index into the pool.
        key: usize,
        /// The tier the request should meet.
        expect: Expect,
    },
    /// Both clients wait for each other, then send the same uncached
    /// key, so the second request coalesces onto the first's search.
    Pair {
        /// Index into the pool.
        key: usize,
    },
    /// A `metrics` scrape.
    Scrape,
}

impl Item {
    fn search(key: usize) -> Item {
        Item::Tune {
            key,
            expect: Expect::Search,
        }
    }

    fn hit(key: usize) -> Item {
        Item::Tune {
            key,
            expect: Expect::Hit,
        }
    }

    /// The pool key this item tunes, if any.
    pub fn key(self) -> Option<usize> {
        match self {
            Item::Tune { key, .. } | Item::Pair { key, .. } => Some(key),
            Item::Scrape => None,
        }
    }
}

/// SplitMix64: a small, fixed generator owned by the benchmark, so the
/// streams do not change when the program's own RNG does.
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            assert_eq!(w.stream(7, 0), w.stream(7, 0), "{}", w.name());
            assert_ne!(w.stream(7, 0), w.stream(8, 0), "{}", w.name());
            assert_ne!(w.stream(7, 0), w.stream(7, 1), "{}", w.name());
        }
    }

    #[test]
    fn pools_parse_and_are_distinct() {
        for w in Workload::ALL {
            let pool = w.pool();
            let mut names: Vec<String> = pool
                .iter()
                .map(|s| format!("{}@{:?}", s.workload, s.device))
                .collect();
            for s in &pool {
                lego_tune::WorkloadKind::parse(&s.workload).expect("pool keys parse");
            }
            names.sort();
            names.dedup();
            assert_eq!(names.len(), pool.len(), "{}", w.name());
        }
        assert!(Workload::PersistMix
            .pool()
            .iter()
            .all(|s| !s.workload.starts_with("stencil")));
    }

    /// The seed reorders a pass but never changes which keys it searches
    /// or how often it touches each key.
    #[test]
    fn seeds_change_order_not_work() {
        for w in Workload::ALL {
            let census = |seed| {
                let mut keys: Vec<(usize, bool)> = w
                    .stream(seed, 0)
                    .concat()
                    .into_iter()
                    .filter_map(|it| match it {
                        Item::Tune { key, expect } => Some((key, expect == Expect::Search)),
                        Item::Pair { key, .. } => Some((key, true)),
                        Item::Scrape => None,
                    })
                    .filter(|&(_, search)| search)
                    .collect();
                keys.sort_unstable();
                keys
            };
            assert_eq!(census(1), census(2), "{}", w.name());
        }
    }

    #[test]
    fn persist_mix_searches_each_uncached_key_once_and_pairs_line_up() {
        let w = Workload::PersistMix;
        let stream = w.stream(3, 0);
        let pairs = |c: &Vec<Item>| -> Vec<Item> {
            c.iter()
                .copied()
                .filter(|i| matches!(i, Item::Pair { .. }))
                .collect()
        };
        assert_eq!(pairs(&stream[0]), pairs(&stream[1]));
        let n = w.pool().len();
        for key in (0..n).filter(|&k| !w.cached(k)) {
            let solo = stream
                .concat()
                .iter()
                .filter(|i| **i == Item::search(key))
                .count();
            let paired = pairs(&stream[0])
                .iter()
                .filter(|i| i.key() == Some(key))
                .count();
            assert_eq!(solo + paired, 1, "key {key}");
        }
        for item in stream.concat() {
            if let Item::Tune {
                key,
                expect: Expect::Hit,
            } = item
            {
                assert!(w.cached(key));
            }
        }
    }

    #[test]
    fn warm_hits_scrapes_at_a_fixed_rate() {
        let stream = Workload::WarmHits.stream(1, 0);
        let c0 = &stream[0];
        let scrapes = c0.iter().filter(|i| **i == Item::Scrape).count();
        let tunes = c0.len() - scrapes;
        assert_eq!(scrapes, tunes / SCRAPE_EVERY);
        assert!(stream[1].iter().all(|i| *i != Item::Scrape));
    }
}
