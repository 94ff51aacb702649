//! CSR vs naive tile binning on a real projected frame: build cost and
//! iteration cost of the flat CSR layout (`TileBins`) against the previous
//! `Vec<Vec<u32>>` layout (`TileBins::build_naive`).
//!
//! The two builds do different work. The CSR build only counts and
//! scatters, leaving each list in splat-index order; the renderer's Raster
//! stage orders a list only as deep as its pixels read it. The naive build
//! also depth-sorts every list, since tests use it as the reference order.
//! `csr_depth_order` adds the full per-tile order
//! (`TileBins::depth_order`) to the CSR build, which is the same work as
//! the naive build.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use metasapiens::render::{project_model, RenderOptions, TileBins, TileGridDims};
use metasapiens::scene::dataset::TraceId;
use metasapiens::scene::Camera;
use std::time::Duration;

struct Setup {
    splats: Vec<metasapiens::render::ProjectedSplat>,
    grid: TileGridDims,
}

fn setup() -> Setup {
    let scene = TraceId::by_name("garden")
        .unwrap()
        .build_scene_with_scale(0.01);
    let cam = Camera {
        width: 192,
        height: 144,
        ..scene.train_cameras[0]
    };
    let opts = RenderOptions::default();
    let splats = project_model(&scene.model, &cam, &opts);
    let grid = TileGridDims::for_image(cam.width, cam.height);
    Setup { splats, grid }
}

fn bench_build(c: &mut Criterion) {
    let s = setup();
    let mut group = c.benchmark_group("binning_build");
    group.bench_function("csr", |b| {
        b.iter(|| TileBins::build(black_box(&s.splats), s.grid));
    });
    // Counting and scatter sharded on the worker pool; output is
    // bit-identical to the serial build.
    let all = vec![true; s.grid.tile_count()];
    for threads in [2usize, 4] {
        group.bench_function(&format!("csr_threads_{threads}"), |b| {
            b.iter(|| {
                let recycle = (Vec::new(), Vec::new());
                TileBins::build_into(black_box(&s.splats), s.grid, &all, threads, recycle)
            });
        });
    }
    group.bench_function("csr_depth_order", |b| {
        b.iter(|| {
            let bins = TileBins::build(black_box(&s.splats), s.grid);
            let tiles =
                (0..s.grid.tiles_y).flat_map(|ty| (0..s.grid.tiles_x).map(move |tx| (tx, ty)));
            tiles
                .map(|(tx, ty)| bins.depth_order(&s.splats, tx, ty))
                .collect::<Vec<_>>()
        });
    });
    // Count, scatter and a stable depth sort of every list.
    group.bench_function("naive_vec_of_vecs", |b| {
        b.iter(|| TileBins::build_naive(black_box(&s.splats), s.grid, &all));
    });
    group.finish();
}

fn bench_iterate(c: &mut Criterion) {
    let s = setup();
    let csr = TileBins::build(&s.splats, s.grid);
    let naive = TileBins::build_naive(&s.splats, s.grid, &vec![true; s.grid.tile_count()]);
    let mut group = c.benchmark_group("binning_iterate");
    // Touch every (tile, splat) pair: per tile, walk the list and fold the
    // splat depths. Each layout uses
    // its idiomatic sequential traversal (`iter_tiles` for CSR, `&naive` for
    // the nested Vecs).
    group.bench_function("csr", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for seg in csr.iter_tiles() {
                for &si in seg {
                    acc += s.splats[si as usize].depth;
                }
            }
            acc
        });
    });
    group.bench_function("naive_vec_of_vecs", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for bin in &naive {
                for &si in bin {
                    acc += s.splats[si as usize].depth;
                }
            }
            acc
        });
    });
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = binning;
    config = configured();
    targets = bench_build, bench_iterate
}
criterion_main!(binning);
