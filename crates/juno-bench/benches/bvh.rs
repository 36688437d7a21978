//! Benchmarks of the RT-core simulator: BVH construction and ray traversal
//! throughput.

use juno_bench::harness::{black_box, Harness};
use juno_common::rng::{seeded, Rng};
use juno_rt::bvh::Bvh;
use juno_rt::ray::Ray;
use juno_rt::scene::SceneBuilder;
use juno_rt::sphere::Sphere;
use std::time::Duration;

fn random_spheres(n: usize, radius: f32, seed: u64) -> Vec<Sphere> {
    let mut rng = seeded(seed);
    (0..n)
        .map(|i| {
            Sphere::new(
                [
                    rng.gen_range(0.0..10.0f32),
                    rng.gen_range(0.0..10.0f32),
                    1.0,
                ],
                radius,
                i as u32,
            )
        })
        .collect()
}

fn main() {
    let mut h = Harness::new("bvh");
    {
        let mut group = h.group("bvh_build");
        group.sample_time(Duration::from_millis(400)).samples(5);
        for n in [1_000usize, 10_000, 50_000] {
            let spheres = random_spheres(n, 0.05, 3);
            group.bench(format!("{n}_spheres"), move || {
                Bvh::build(black_box(&spheres)).node_count()
            });
        }
    }
    {
        let mut group = h.group("ray_trace");
        for n in [10_000usize, 50_000] {
            let spheres = random_spheres(n, 0.05, 4);
            let mut builder = SceneBuilder::new();
            for s in &spheres {
                builder.add_sphere(*s);
            }
            let scene = builder.build();
            let mut rng = seeded(9);
            let rays: Vec<Ray> = (0..256)
                .map(|_| {
                    Ray::axis_aligned_z(
                        [
                            rng.gen_range(0.0..10.0f32),
                            rng.gen_range(0.0..10.0f32),
                            0.0,
                        ],
                        2.0,
                    )
                })
                .collect();
            group.bench(format!("256_rays_{n}_spheres"), move || {
                let mut hits = 0usize;
                for ray in &rays {
                    scene.trace(black_box(ray), &mut |_| hits += 1);
                }
                hits
            });
        }
    }
    {
        // JUNO's own ray family: a 48-subspace × 64-entry L2 scene (unit
        // spheres at z = 2s + 1), and one "query" of 8 probes × 48 subspaces
        // = 384 `+z` rays from z = 2s with `t_max ≤ 1` — through the tree,
        // and through the per-subspace flattened tables. CI gates the ratio.
        const SUBSPACES: usize = 48;
        const ENTRIES: usize = 64;
        const PROBES: usize = 8;
        let mut rng = seeded(15);
        let mut builder = SceneBuilder::new();
        for s in 0..SUBSPACES {
            for e in 0..ENTRIES {
                let center = [
                    rng.gen_range(-2.5..2.5f32),
                    rng.gen_range(-2.5..2.5f32),
                    2.0 * s as f32 + 1.0,
                ];
                builder.add_sphere(Sphere::new(center, 1.0, (s * ENTRIES + e) as u32));
            }
        }
        let scene = builder.build();
        let tables: Vec<_> = (0..SUBSPACES)
            .map(|s| scene.z_ray_table(2.0 * s as f32))
            .collect();
        // (subspace, x, y, t_max) in the engine's order: probe-major.
        let rays: Vec<(usize, f32, f32, f32)> = (0..PROBES * SUBSPACES)
            .map(|i| {
                (
                    i % SUBSPACES,
                    rng.gen_range(-2.5..2.5f32),
                    rng.gen_range(-2.5..2.5f32),
                    rng.gen_range(0.3..0.8f32),
                )
            })
            .collect();
        let mut group = h.group("juno_layer_rays");
        {
            let (scene, rays) = (&scene, &rays);
            group.bench("tree_384_rays", move || {
                let mut hits = 0usize;
                for &(s, x, y, t_max) in black_box(rays) {
                    let ray = Ray::axis_aligned_z([x, y, 2.0 * s as f32], t_max);
                    scene.trace(&ray, &mut |_| hits += 1);
                }
                hits
            });
        }
        group.bench("table_384_rays", move || {
            let mut stats = juno_rt::TraversalStats::new();
            for &(s, x, y, t_max) in black_box(&rays) {
                tables[s].trace(x, y, t_max, &mut stats, |hit| {
                    black_box(hit);
                });
            }
            stats.hits
        });
    }
    h.finish();
}
