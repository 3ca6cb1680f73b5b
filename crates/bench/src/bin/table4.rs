//! **Table IV**: arithmetic operations in user-written code, original
//! Triton kernels vs. the LEGO versions, plus the CUDA workloads (NW,
//! LUD) the tuner now searches.
//!
//! Both sides are *counted from source text* with the same counter
//! ([`lego_codegen::opcount::count_source_ops`]): the original column
//! counts the index-computation lines the programmer writes in the
//! reference kernels (the colored boxes of Fig. 1); the LEGO column
//! counts the layout specification plus placeholder usage — everything
//! else is generated.
//!
//! Pass `--tuned` to additionally run the `lego-tune` search (through
//! the shared `gpu_sim::trace` builders) for the counted kernels
//! (`--strategy anneal|genetic` with `--budget N` searches the
//! enlarged free-integer space).

use lego_bench::{emit, tuned};
use lego_codegen::cuda::stencil::StencilShape;
use lego_codegen::opcount::count_source_ops;
use lego_tune::{Json, WorkloadKind};

/// Index-computation lines of the reference Triton matmul (Fig. 1 left).
const MATMUL_ORIG: &str = "\
num_pid_in_group = GM * nt_n
group_id = pid // num_pid_in_group
first_pid_m = group_id * GM
pid_m = first_pid_m + ((pid % num_pid_in_group) % GM)
pid_n = (pid % num_pid_in_group) // GM
offs_am = pid_m * BM + tl.arange(0, BM)
offs_bn = pid_n * BN + tl.arange(0, BN)
offs_k = tl.arange(0, BK)
a_ptrs = a_ptr + (offs_am[:, None] * stride_am + offs_k[None, :] * stride_ak)
b_ptrs = b_ptr + (offs_k[:, None] * stride_bk + offs_bn[None, :] * stride_bn)
a_ptrs += BK * stride_ak
b_ptrs += BK * stride_bk
offs_cm = pid_m * BM + tl.arange(0, BM)
offs_cn = pid_n * BN + tl.arange(0, BN)
c_ptrs = c_ptr + stride_cm * offs_cm[:, None] + stride_cn * offs_cn[None, :]";

/// The LEGO user specification for the same kernel (Fig. 1 right).
const MATMUL_LEGO: &str = "\
CL = TileBy([nt_m, nt_n]).OrderBy(Col(max(nt_m//GM, 1), 1), Col(min(nt_m, GM), nt_n))
lpid_m, lpid_n = CL.inv(pid)
DL_a = TileBy([M//BM, K//BK], [BM, BK]).OrderBy(Row(M, K))
DL_b = TileBy([K//BK, N//BN], [BK, BN]).OrderBy(Row(K, N))
DL_c = TileBy([M//BM, N//BN], [BM, BN]).OrderBy(Row(M, N))
la_optr = DL_a[lpid_m, k, :, :]
lb_optr = DL_b[k, lpid_n, :, :]
lc_optr = DL_c[lpid_m, lpid_n, :, :]";

const LN_FWD_ORIG: &str = "\
row = tl.program_id(0)
x_base = x_ptr + row * stride
for off in range(0, N, BLOCK_SIZE):
    cols = off + tl.arange(0, BLOCK_SIZE)
    x = tl.load(x_base + cols, mask=cols < N)
y_base = y_ptr + row * stride
w = tl.load(w_ptr + cols, mask=cols < N)
y = tl.store(y_base + cols, y, mask=cols < N)";

const LN_FWD_LEGO: &str = "\
DL = GroupBy([M, N//BS, BS])
x_off = DL[row, cb, :]
y_off = DL[row, cb, :]";

const LN_BWD_ORIG: &str = "\
row = tl.program_id(0)
cols = tl.arange(0, BLOCK_SIZE_N)
x_off = row * stride + cols
dy = tl.load(dy_ptr + x_off, mask=cols < N)
x = tl.load(x_ptr + x_off, mask=cols < N)
dx_off = row * stride + cols
tl.store(dx_ptr + dx_off, dx, mask=cols < N)";

const LN_BWD_LEGO: &str = "\
DL = GroupBy([M, BS])
x_off = DL[row, :]
dx_off = DL[row, :]";

const SOFTMAX_ORIG: &str = "\
row_idx = tl.program_id(0)
row_start_ptr = input_ptr + row_idx * input_row_stride
col_offsets = tl.arange(0, BLOCK_SIZE)
input_ptrs = row_start_ptr + col_offsets
output_row_start_ptr = output_ptr + row_idx * output_row_stride
output_ptrs = output_row_start_ptr + col_offsets";

const SOFTMAX_LEGO: &str = "\
DL = GroupBy([M, BS])
offs = DL[row, :]";

const GROUPED_ORIG: &str = "\
tile_idx = tl.program_id(0)
num_tiles = num_m_tiles * num_n_tiles
tile_m_idx = tile_in_gemm // num_n_tiles
tile_n_idx = tile_in_gemm % num_n_tiles
offs_am = tile_m_idx * BLOCK_M + tl.arange(0, BLOCK_M)
offs_bn = tile_n_idx * BLOCK_N + tl.arange(0, BLOCK_N)
offs_k = tl.arange(0, BLOCK_K)
a_ptrs = a_ptr + offs_am[:, None] * lda + offs_k[None, :]
b_ptrs = b_ptr + offs_k[:, None] * ldb + offs_bn[None, :]
a_ptrs += BLOCK_K
b_ptrs += BLOCK_K * ldb
c_ptrs = c_ptr + ldc * offs_am[:, None] + offs_bn[None, :]";

const GROUPED_LEGO: &str = "\
CL = TileBy([nt_m, nt_n])
lpid_m, lpid_n = CL.inv(pid)
DL_a = TileBy([M//BM, K//BK], [BM, BK]).OrderBy(Row(M, K))
DL_b = TileBy([K//BK, N//BN], [BK, BN]).OrderBy(Row(K, N))
DL_c = TileBy([M//BM, N//BN], [BM, BN]).OrderBy(Row(M, N))
la_optr = DL_a[lpid_m, k, :, :]
lb_optr = DL_b[k, lpid_n, :, :]
lc_optr = DL_c[lpid_m, lpid_n, :, :]";

/// Index computation of the Rodinia NW shared-buffer accesses (the
/// wavefront loop writes `temp[i][j]` through manual 2-D arithmetic).
const NW_ORIG: &str = "\
index = cols * BLOCK_SIZE * by + BLOCK_SIZE * bx + tx + (cols + 1)
temp_ij = temp[(ty + 1) * (BLOCK_SIZE + 1) + (tx + 1)]
temp_nw = temp[ty * (BLOCK_SIZE + 1) + tx]
temp_n = temp[ty * (BLOCK_SIZE + 1) + (tx + 1)]
temp_w = temp[(ty + 1) * (BLOCK_SIZE + 1) + tx]";

/// The LEGO NW specification: one buffer layout, accesses unchanged.
const NW_LEGO: &str = "\
BL = GroupBy([b + 1, b + 1]).OrderBy(AntiDiag(b + 1))
slot = BL[i, j]";

/// Index computation of the Rodinia coarsened LUD internal kernel.
const LUD_ORIG: &str = "\
global_row_id = offset + (blockIdx.y + 1) * BLOCK_SIZE
global_col_id = offset + (blockIdx.x + 1) * BLOCK_SIZE
peri_row_idx = (ri * T + ty) * BLOCK_SIZE + rj * T + tx
peri_col_idx = (ri * T + ty) * BLOCK_SIZE + rj * T + tx
m_idx = (global_row_id + ri * T + ty) * matrix_dim + global_col_id + rj * T + tx";

/// The LEGO LUD specification: coarsening as a thread layout.
const LUD_LEGO: &str = "\
TL = TileBy([R, R], [T, T]).OrderBy(Row(R * T, R * T))
point = TL[ri, rj, ti, tj]";

fn main() {
    tuned::reject_unknown_flags(&tuned::BENCH_FLAGS);
    println!("Table IV: arithmetic ops in user-written code, before/after\n");
    println!(
        "{:<18} {:>13} {:>13} {:>12} {:>12}",
        "Operator", "measured orig", "measured LEGO", "paper orig", "paper LEGO"
    );
    let rows = [
        ("LayerNorm (FWD)", LN_FWD_ORIG, LN_FWD_LEGO, 6, 1),
        ("LayerNorm (BWD)", LN_BWD_ORIG, LN_BWD_LEGO, 4, 0),
        ("Softmax", SOFTMAX_ORIG, SOFTMAX_LEGO, 4, 0),
        ("Grouped GEMM", GROUPED_ORIG, GROUPED_LEGO, 20, 6),
        ("Matmul", MATMUL_ORIG, MATMUL_LEGO, 31, 9),
        ("NW", NW_ORIG, NW_LEGO, 14, 1),
        ("LUD", LUD_ORIG, LUD_LEGO, 18, 3),
    ];
    let mut json_rows = Vec::new();
    for (name, orig, lego, p_orig, p_lego) in rows {
        let (m_orig, m_lego) = (count_source_ops(orig), count_source_ops(lego));
        println!(
            "{:<18} {:>13} {:>13} {:>12} {:>12}",
            name, m_orig, m_lego, p_orig, p_lego
        );
        json_rows.push(Json::obj([
            ("operator", Json::Str(name.to_string())),
            ("measured_orig", Json::Int(m_orig as i64)),
            ("measured_lego", Json::Int(m_lego as i64)),
            ("paper_orig", Json::Int(p_orig)),
            ("paper_lego", Json::Int(p_lego)),
        ]));
    }
    println!(
        "\n(The reduction direction and magnitude match the paper; exact \
         counts depend on which lines are attributed to indexing.)"
    );
    emit::announce(emit::write_bench_json(
        // Source op counts do not depend on the device model; only the
        // maybe_report sidecar below is per-device.
        "table4", json_rows,
    ));
    tuned::maybe_report(
        "table4",
        &[
            WorkloadKind::Matmul { n: 2048 },
            WorkloadKind::Stencil {
                shape: StencilShape::Star(1),
                n: 64,
            },
            WorkloadKind::Nw { n: 2048, b: 16 },
            WorkloadKind::Lud { n: 2048, bs: 16 },
        ],
    );
}
