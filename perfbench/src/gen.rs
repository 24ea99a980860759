//! Seeded input generators. Every input the benchmark hands the program
//! comes from here and is a pure function of `--seed`.

use exa_fft::C64;
use exa_serve::Query;

/// splitmix64: a small, fast, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, salt)`, so that two inputs of one
    /// run never share draws.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// A real-valued `n³` field, uniform in `[-1, 1)`, in canonical order.
pub fn dns_field(n: usize, seed: u64) -> Vec<C64> {
    let mut rng = Rng::new(seed, 1);
    (0..n * n * n)
        .map(|_| C64::new(2.0 * rng.unit() - 1.0, 0.0))
        .collect()
}

/// Chemistry cells in the campaign's regime: cold fuel, with one cell in
/// eight a hot spot that needs more Newton iterations.
pub fn pele_cells(count: usize, seed: u64) -> Vec<[f64; 4]> {
    let mut rng = Rng::new(seed, 2);
    (0..count)
        .map(|_| {
            let hot = rng.below(8) == 0;
            let t = if hot {
                1.1 + 0.3 * rng.unit()
            } else {
                0.18 + 0.1 * rng.unit()
            };
            [0.9 + 0.1 * rng.unit(), 0.02, 0.0, t]
        })
        .collect()
}

/// Requests the grammar must reject.
const MALFORMED: [&str; 4] = [
    "app=Unknown machine=Frontier",
    "machine=Frontier",
    "app=Pele machine=Frontier knob:x=0",
    "app=Pele machine=Mars",
];

/// One generated request and whether it was generated malformed.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub text: String,
    pub malformed: bool,
}

fn table2_names() -> Vec<String> {
    exa_apps::table2_applications()
        .iter()
        .map(|a| a.name().to_string())
        .collect()
}

/// The warm stream: zipf(s = 1) popularity over the 192-key universe of
/// the `campaign_load` replay (8 Table-2 apps × 2 machines × 3 scales ×
/// 4 knob settings), with the seed choosing both the draws and which key
/// holds which popularity rank. About one request in 1000 is malformed.
pub struct WarmStream {
    universe: Vec<String>,
    cdf: Vec<f64>,
    rng: Rng,
}

impl WarmStream {
    pub fn new(seed: u64) -> Self {
        let knobs: [Option<(&str, f64)>; 4] = [
            None,
            Some(("comm", 1.25)),
            Some(("transform", 1.5)),
            Some(("kernel", 2.0)),
        ];
        let mut universe = Vec::new();
        for app in table2_names() {
            for machine in ["Frontier", "Summit"] {
                for nodes in [0u32, 1024, 128] {
                    for knob in knobs {
                        let mut q = Query::new(&app, machine).with_nodes(nodes);
                        if let Some((needle, factor)) = knob {
                            q = q.with_knob(needle, factor);
                        }
                        universe.push(q.render());
                    }
                }
            }
        }
        let mut rng = Rng::new(seed, 3);
        rng.shuffle(&mut universe);
        let mut cdf = Vec::with_capacity(universe.len());
        let mut total = 0.0;
        for rank in 1..=universe.len() {
            total += 1.0 / rank as f64;
            cdf.push(total);
        }
        cdf.iter_mut().for_each(|c| *c /= total);
        WarmStream { universe, cdf, rng }
    }

    /// Every key of the universe, once.
    pub fn universe(&self) -> &[String] {
        &self.universe
    }

    pub fn batch(&mut self, len: usize) -> Vec<Request> {
        (0..len)
            .map(|_| {
                if self.rng.below(1000) == 0 {
                    let text = MALFORMED[self.rng.below(MALFORMED.len())].to_string();
                    return Request {
                        text,
                        malformed: true,
                    };
                }
                let u = self.rng.unit();
                let rank = self
                    .cdf
                    .partition_point(|c| *c < u)
                    .min(self.universe.len() - 1);
                Request {
                    text: self.universe[rank].clone(),
                    malformed: false,
                }
            })
            .collect()
    }
}

/// Node counts the cold stream draws from.
pub const COLD_NODES: [u32; 4] = [16, 128, 1024, 4096];
/// Distinct `comm` knob factors the cold stream draws from.
pub const COLD_FACTORS: usize = 1000;

/// The cold stream: app uniform over the 8 Table-2 apps, machine uniform
/// over Frontier/Summit, nodes uniform over [`COLD_NODES`], and the `comm`
/// factor uniform over [`COLD_FACTORS`] values. Draws are stratified: each
/// block of 64 requests holds every (app, machine, nodes) cell once, in
/// seeded order, so every batch of 64 carries the same mix.
pub struct ColdStream {
    cells: Vec<(String, &'static str, u32)>,
    rng: Rng,
}

impl ColdStream {
    pub fn new(seed: u64) -> Self {
        let mut cells = Vec::new();
        for app in table2_names() {
            for machine in ["Frontier", "Summit"] {
                for nodes in COLD_NODES {
                    cells.push((app.clone(), machine, nodes));
                }
            }
        }
        ColdStream {
            cells,
            rng: Rng::new(seed, 4),
        }
    }

    pub fn batch(&mut self, len: usize) -> Vec<Request> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let mut order: Vec<usize> = (0..self.cells.len()).collect();
            self.rng.shuffle(&mut order);
            for i in order.into_iter().take(len - out.len()) {
                let (app, machine, nodes) = &self.cells[i];
                let factor = 1.0 + self.rng.below(COLD_FACTORS) as f64 / COLD_FACTORS as f64;
                let text = Query::new(app, machine)
                    .with_nodes(*nodes)
                    .with_knob("comm", factor)
                    .render();
                out.push(Request {
                    text,
                    malformed: false,
                });
            }
        }
        out
    }
}

/// True for the costliest cold requests: GESTS on Frontier at ≥ 4096 nodes.
pub fn is_gests_frontier_large(text: &str) -> bool {
    Query::parse(text)
        .map(|q| q.app == "GESTS" && q.machine == "Frontier" && q.nodes >= 4096)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(reqs: &[Request]) -> Vec<&str> {
        reqs.iter().map(|r| r.text.as_str()).collect()
    }

    #[test]
    fn rng_reproduces_from_a_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 7);
            (0..16).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let mut a = Rng::new(1, 7);
        let mut b = Rng::new(1, 8);
        assert_ne!(a.next_u64(), b.next_u64(), "salts give independent streams");
    }

    #[test]
    fn dns_field_and_cells_are_seeded() {
        assert_eq!(dns_field(4, 9), dns_field(4, 9));
        assert_ne!(dns_field(4, 9), dns_field(4, 10));
        assert!(dns_field(4, 9).iter().all(|z| z.re >= -1.0 && z.re < 1.0));
        assert_eq!(pele_cells(64, 3), pele_cells(64, 3));
        assert_ne!(pele_cells(64, 3), pele_cells(64, 4));
    }

    #[test]
    fn warm_stream_is_seeded_and_draws_from_the_universe() {
        let mut a = WarmStream::new(5);
        let mut b = WarmStream::new(5);
        let mut c = WarmStream::new(6);
        assert_eq!(a.universe().len(), 192);
        let (ba, bb, bc) = (a.batch(4096), b.batch(4096), c.batch(4096));
        assert_eq!(ba, bb);
        assert_ne!(texts(&ba), texts(&bc));
        let bad = ba.iter().filter(|r| r.malformed).count();
        assert!(
            (1..=12).contains(&bad),
            "about 1 in 1000 malformed, got {bad}"
        );
        for r in &ba {
            assert_eq!(Query::parse(&r.text).is_err(), r.malformed, "{}", r.text);
            if !r.malformed {
                assert!(a.universe().contains(&r.text));
            }
        }
    }

    #[test]
    fn cold_stream_is_seeded_stratified_and_mostly_distinct() {
        let mut a = ColdStream::new(5);
        let mut b = ColdStream::new(5);
        let mut c = ColdStream::new(6);
        let (ba, bb, bc) = (a.batch(640), b.batch(640), c.batch(640));
        assert_eq!(ba, bb);
        assert_ne!(texts(&ba), texts(&bc));
        for block in ba.chunks(64) {
            let heavy = block.iter().filter(|r| is_gests_frontier_large(&r.text));
            assert_eq!(heavy.count(), 1, "one GESTS/Frontier/4096 cell per block");
        }
        let mut distinct: Vec<&str> = texts(&ba);
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() > 600, "mostly distinct: {}", distinct.len());
        assert!(ba.iter().all(|r| Query::parse(&r.text).is_ok()));
    }
}
