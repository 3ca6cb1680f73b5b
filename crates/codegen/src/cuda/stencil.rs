//! 3-D stencil kernels over row-major vs **brick** layouts (§V-B,
//! Fig. 12c, Fig. 13b).
//!
//! Based on the array/brick comparison of Zhou et al.: the same stencil
//! is evaluated with the conventional row-major layout and with the
//! 6-D brick layout of Table I (last row) — the only difference being
//! the LEGO layout the index expressions are derived from.
//!
//! [`generate`] builds both layouts but derives no expression from
//! them: its kernel source is a template whose taps index through a
//! hand-written `IDX` macro of the brick offset. No symbolic apply or
//! simplification runs, so Table III's Bricks rows time layout
//! construction and template rendering only.

use lego_core::brick::{brick3d, row_major3d};
use lego_core::{Layout, LayoutError, Result};

use crate::template;
use crate::tuning::{StencilLayoutChoice, TunedConfig};

/// The stencil shapes evaluated in Fig. 12c: star (radius 1..4) and cube
/// (3³ and 5³).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StencilShape {
    /// Star stencil of the given radius: `1 + 6r` points.
    Star(i64),
    /// Cube stencil of the given radius: `(2r+1)³` points.
    Cube(i64),
}

impl StencilShape {
    /// The six configurations the paper reports (star 7/13/19/25-pt,
    /// cube 27/125-pt).
    pub const ALL: [StencilShape; 6] = [
        StencilShape::Star(1),
        StencilShape::Star(2),
        StencilShape::Star(3),
        StencilShape::Star(4),
        StencilShape::Cube(1),
        StencilShape::Cube(2),
    ];

    /// Number of points in the stencil.
    pub fn points(self) -> usize {
        match self {
            StencilShape::Star(r) => (1 + 6 * r) as usize,
            StencilShape::Cube(r) => {
                let s = 2 * r + 1;
                (s * s * s) as usize
            }
        }
    }

    /// Display name, e.g. `star-7pt`.
    pub fn name(self) -> String {
        match self {
            StencilShape::Star(_) => format!("star-{}pt", self.points()),
            StencilShape::Cube(_) => format!("cube-{}pt", self.points()),
        }
    }

    /// Parses a display name back into a shape (`star-13pt`,
    /// `cube-27pt`). Inverse of [`StencilShape::name`] for any radius
    /// ≥ 1 whose point count matches, not just the paper's six — the
    /// tuning-service wire protocol names stencils this way.
    pub fn parse(s: &str) -> Option<StencilShape> {
        let (family, rest) = s.split_once('-')?;
        let points: i64 = rest.strip_suffix("pt")?.parse().ok()?;
        let shape = match family {
            // star has 1 + 6r points
            "star" if points > 1 && (points - 1) % 6 == 0 => StencilShape::Star((points - 1) / 6),
            // cube has (2r+1)³ points
            "cube" => {
                let side = (points as f64).cbrt().round() as i64;
                if side < 3 || side % 2 == 0 || side * side * side != points {
                    return None;
                }
                StencilShape::Cube((side - 1) / 2)
            }
            _ => return None,
        };
        Some(shape)
    }

    /// The neighbor offsets `(dx, dy, dz)` of the stencil.
    pub fn offsets(self) -> Vec<(i64, i64, i64)> {
        match self {
            StencilShape::Star(r) => {
                let mut v = vec![(0, 0, 0)];
                for k in 1..=r {
                    v.extend([
                        (k, 0, 0),
                        (-k, 0, 0),
                        (0, k, 0),
                        (0, -k, 0),
                        (0, 0, k),
                        (0, 0, -k),
                    ]);
                }
                v
            }
            StencilShape::Cube(r) => {
                let mut v = Vec::new();
                for dx in -r..=r {
                    for dy in -r..=r {
                        for dz in -r..=r {
                            v.push((dx, dy, dz));
                        }
                    }
                }
                v
            }
        }
    }

    /// Halo radius.
    pub fn radius(self) -> i64 {
        match self {
            StencilShape::Star(r) | StencilShape::Cube(r) => r,
        }
    }
}

/// A stencil benchmark instance: shape + both layouts.
#[derive(Clone, Debug)]
pub struct StencilBench {
    /// The stencil shape.
    pub shape: StencilShape,
    /// Domain side length.
    pub n: i64,
    /// Brick side length.
    pub b: i64,
    /// Row-major baseline layout.
    pub row_major: Layout,
    /// Brick layout.
    pub brick: Layout,
    /// Generated CUDA source (brick version).
    pub source: String,
}

const TEMPLATE: &str = r#"// LEGO-generated {{ name }} stencil over a {{ n }}^3 domain of {{ b }}^3 bricks.
// Data layout: TileBy([N/B,N/B,N/B],[B,B,B]) reordered brick-contiguous —
// the index expression below is derived from the layout, the compute
// loop is unchanged from the row-major version.
__global__ void stencil_{{ kind }}(const float* __restrict__ in, float* __restrict__ out, int n) {
    const int B = {{ b }};
    const int G = n / B;
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    int z = blockIdx.z * blockDim.z + threadIdx.z;
    if (x >= n || y >= n || z >= n) return;
    // brick offset of (x, y, z):
    //   (((x/B)*G + y/B)*G + z/B)*B*B*B + ((x%B)*B + y%B)*B + z%B
    #define IDX(x, y, z) (((((x)/B)*G + (y)/B)*G + (z)/B)*B*B*B + (((x)%B)*B + (y)%B)*B + (z)%B)
    float acc = 0.0f;
    {{ taps }}
    out[IDX(x, y, z)] = acc;
    #undef IDX
}
"#;

/// Builds both layouts and the brick-kernel source for one shape.
///
/// # Errors
///
/// Propagates layout construction errors (e.g. `b` not dividing `n`).
pub fn generate(shape: StencilShape, n: i64, b: i64) -> Result<StencilBench> {
    let row_major = row_major3d(n)?;
    let brick = brick3d(n, b)?;
    let source = render_sweep(TEMPLATE, shape, n, Some(b));
    Ok(StencilBench {
        shape,
        n,
        b,
        row_major,
        brick,
        source,
    })
}

/// Renders a sweep template: the tap lines plus the shared bindings
/// (`b` only for templates that declare a brick side).
fn render_sweep(tpl: &str, shape: StencilShape, n: i64, b: Option<i64>) -> String {
    let taps: String = shape
        .offsets()
        .iter()
        .map(|&(dx, dy, dz)| format!("acc += in[IDX(x + ({dx}), y + ({dy}), z + ({dz}))];\n    "))
        .collect();
    let mut values = template::bindings([
        ("name", shape.name()),
        ("kind", shape.name().replace('-', "_")),
        ("n", n.to_string()),
        ("taps", taps),
    ]);
    if let Some(b) = b {
        values.insert("b".to_string(), b.to_string());
    }
    template::render(tpl, &values).expect("closed template")
}

/// A stencil kernel instantiated from a tuned configuration: the chosen
/// layout plus the CUDA source that sweeps it.
#[derive(Clone, Debug)]
pub struct TunedStencil {
    /// The stencil shape.
    pub shape: StencilShape,
    /// Domain side length.
    pub n: i64,
    /// The tuned layout choice.
    pub choice: StencilLayoutChoice,
    /// The data layout the kernel indexes through.
    pub layout: Layout,
    /// Generated CUDA source.
    pub source: String,
}

const ROW_MAJOR_TEMPLATE: &str = r#"// LEGO-generated {{ name }} stencil over a {{ n }}^3 row-major domain.
__global__ void stencil_{{ kind }}_rm(const float* __restrict__ in, float* __restrict__ out, int n) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    int z = blockIdx.z * blockDim.z + threadIdx.z;
    if (x >= n || y >= n || z >= n) return;
    #define IDX(x, y, z) (((x)*n + (y))*n + (z))
    float acc = 0.0f;
    {{ taps }}
    out[IDX(x, y, z)] = acc;
    #undef IDX
}
"#;

/// Instantiates a stencil kernel for `shape` from a tuned configuration.
///
/// # Errors
///
/// Rejects non-stencil configs and propagates layout construction
/// errors (e.g. a brick side not dividing `n`).
pub fn from_tuned(shape: StencilShape, config: &TunedConfig) -> Result<TunedStencil> {
    let TunedConfig::Stencil { n, layout: choice } = *config else {
        return Err(LayoutError::Unsupported(
            "from_tuned(stencil) requires a TunedConfig::Stencil",
        ));
    };
    let header = format!("// lego-tune: {config}\n");
    match choice {
        StencilLayoutChoice::Brick { b } => {
            let bench = generate(shape, n, b)?;
            Ok(TunedStencil {
                shape,
                n,
                choice,
                layout: bench.brick,
                source: header + &bench.source,
            })
        }
        StencilLayoutChoice::RowMajorY | StencilLayoutChoice::RowMajorZ => {
            let layout = row_major3d(n)?;
            let source = render_sweep(ROW_MAJOR_TEMPLATE, shape, n, None);
            Ok(TunedStencil {
                shape,
                n,
                choice,
                layout,
                source: header + &source,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_point_counts() {
        let counts: Vec<usize> = StencilShape::ALL.iter().map(|s| s.points()).collect();
        assert_eq!(counts, vec![7, 13, 19, 25, 27, 125]);
    }

    #[test]
    fn offsets_match_counts() {
        for s in StencilShape::ALL {
            assert_eq!(s.offsets().len(), s.points(), "{}", s.name());
        }
    }

    #[test]
    fn template_index_matches_layout() {
        // The #define in the template must agree with the LEGO layout.
        let bench = generate(StencilShape::Star(1), 8, 4).unwrap();
        let (b, g) = (4i64, 2i64);
        let idx = |x: i64, y: i64, z: i64| {
            (((x / b) * g + y / b) * g + z / b) * b * b * b + ((x % b) * b + y % b) * b + z % b
        };
        for x in 0..8 {
            for y in 0..8 {
                for z in 0..8 {
                    assert_eq!(
                        bench.brick.apply_c(&[x, y, z]).unwrap(),
                        idx(x, y, z),
                        "({x},{y},{z})"
                    );
                }
            }
        }
    }

    #[test]
    fn source_closed() {
        let bench = generate(StencilShape::Cube(1), 16, 4).unwrap();
        assert!(!bench.source.contains("{{"));
        assert_eq!(bench.source.matches("acc +=").count(), 27);
    }

    #[test]
    fn shape_name_round_trips_through_parse() {
        for shape in StencilShape::ALL {
            assert_eq!(StencilShape::parse(&shape.name()), Some(shape));
        }
        // Beyond the paper set: star-31pt is radius 5, cube-343pt is
        // radius 3.
        assert_eq!(
            StencilShape::parse("star-31pt"),
            Some(StencilShape::Star(5))
        );
        assert_eq!(
            StencilShape::parse("cube-343pt"),
            Some(StencilShape::Cube(3))
        );
        for bad in [
            "star-8pt", "cube-8pt", "cube-1pt", "ball-7pt", "star-7", "7pt",
        ] {
            assert_eq!(StencilShape::parse(bad), None, "{bad:?} must not parse");
        }
    }
}
