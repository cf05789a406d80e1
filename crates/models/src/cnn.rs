//! Table 3 of the paper: the m×k · k×n GeMM dimensions of every
//! evaluated CNN layer and the square-matrix (SMM) suite.

use std::fmt;

/// One GeMM problem: C (m×n) = A (m×k) · B (k×n).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Rows of A / C.
    pub m: usize,
    /// Columns of B / C.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
}

impl GemmShape {
    /// Construct a shape.
    pub const fn new(m: usize, n: usize, k: usize) -> Self {
        GemmShape { m, n, k }
    }

    /// Multiply-accumulate operations of this GeMM.
    pub fn macs(&self) -> u64 {
        self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Operations (2 per MAC), the x-axis unit of Figs. 4/15.
    pub fn ops(&self) -> u64 {
        2 * self.macs()
    }
}

impl fmt::Display for GemmShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.m, self.n, self.k)
    }
}

/// The benchmark suites of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// AlexNet convolution layers (5 GeMMs).
    AlexNet,
    /// Square matrix multiplication, 32–1024.
    Smm,
    /// ResNet layers (8 GeMMs).
    ResNet,
    /// VGG layers (9 GeMMs).
    Vgg,
    /// MobileNet layers (10 GeMMs).
    MobileNet,
}

impl Benchmark {
    /// All CNN-side benchmarks in the paper's order.
    pub fn all() -> [Benchmark; 5] {
        [
            Benchmark::AlexNet,
            Benchmark::Smm,
            Benchmark::ResNet,
            Benchmark::Vgg,
            Benchmark::MobileNet,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::AlexNet => "AlexNet",
            Benchmark::Smm => "SMM",
            Benchmark::ResNet => "ResNet",
            Benchmark::Vgg => "VGG",
            Benchmark::MobileNet => "MobileNet",
        }
    }
}

/// Table 3, transcribed: the (m, n, k) triples per benchmark.
///
/// The table reports `m,n,k` of an `m·k × k·n` product; size index 1 is
/// first. (Two obvious typos in the camera-ready table — "2544" for
/// MobileNet-1 and "12544" given row context — are transcribed as
/// printed.)
pub fn layers(b: Benchmark) -> Vec<GemmShape> {
    let t: &[(usize, usize, usize)] = match b {
        Benchmark::AlexNet => &[
            (169, 256, 3456),
            (169, 384, 2304),
            (169, 384, 3456),
            (3025, 96, 363),
            (729, 256, 2400),
        ],
        Benchmark::Smm => &[
            (32, 32, 32),
            (64, 64, 64),
            (128, 128, 128),
            (256, 256, 256),
            (512, 512, 512),
            (1024, 1024, 1024),
        ],
        Benchmark::ResNet => &[
            (12544, 64, 147),
            (196, 256, 1152),
            (196, 256, 2304),
            (3136, 64, 576),
            (49, 512, 2304),
            (49, 512, 4608),
            (784, 128, 1152),
            (784, 128, 576),
        ],
        Benchmark::Vgg => &[
            (12544, 128, 1152),
            (12544, 128, 576),
            (196, 512, 4608),
            (3136, 256, 1152),
            (3136, 256, 2304),
            (50176, 64, 27),
            (50176, 64, 576),
            (784, 512, 2304),
            (784, 512, 4608),
        ],
        Benchmark::MobileNet => &[
            (2544, 32, 27),
            (12544, 64, 32),
            (196, 512, 256),
            (196, 512, 512),
            (3136, 128, 128),
            (3136, 128, 64),
            (49, 1024, 1024),
            (49, 1024, 512),
            (784, 256, 128),
            (784, 256, 256),
        ],
    };
    t.iter().map(|&(m, n, k)| GemmShape::new(m, n, k)).collect()
}

/// All CNN-layer GeMMs of Table 3 (excluding the SMM suite), sorted by
/// operation count (stable, so equal counts keep benchmark order): the
/// x axis of Figs. 4 and 15.
pub fn all_cnn_layers() -> Vec<GemmShape> {
    let benchmarks = [Benchmark::AlexNet, Benchmark::ResNet, Benchmark::Vgg, Benchmark::MobileNet];
    let mut out: Vec<GemmShape> = benchmarks.into_iter().flat_map(layers).collect();
    out.sort_by_key(GemmShape::ops);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_counts_match_paper() {
        assert_eq!(layers(Benchmark::AlexNet).len(), 5);
        assert_eq!(layers(Benchmark::Smm).len(), 6);
        assert_eq!(layers(Benchmark::ResNet).len(), 8);
        assert_eq!(layers(Benchmark::Vgg).len(), 9);
        assert_eq!(layers(Benchmark::MobileNet).len(), 10);
    }

    #[test]
    fn spot_check_entries() {
        assert_eq!(layers(Benchmark::ResNet)[0], GemmShape::new(12544, 64, 147));
        assert_eq!(layers(Benchmark::Vgg)[5], GemmShape::new(50176, 64, 27));
        assert_eq!(layers(Benchmark::Smm)[4], GemmShape::new(512, 512, 512));
    }

    #[test]
    fn ops_accounting() {
        let s = GemmShape::new(10, 20, 30);
        assert_eq!(s.macs(), 6000);
        assert_eq!(s.ops(), 12000);
        assert_eq!(s.to_string(), "10x20x30");
    }

    #[test]
    fn all_cnn_layers_is_32_entries() {
        // 5 + 8 + 9 + 10 layers
        assert_eq!(all_cnn_layers().len(), 32);
    }

    #[test]
    fn benchmarks_have_names() {
        for b in Benchmark::all() {
            assert!(!b.name().is_empty());
        }
    }
}
