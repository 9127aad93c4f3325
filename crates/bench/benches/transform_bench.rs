//! Pattern mining and operator-program discovery throughput.

use llmdm_rt::bench::Criterion;
use llmdm_transform::{discover_program, mine_pattern, Grid};

fn bench_transform(c: &mut Criterion) {
    let dates: Vec<String> =
        (0..200).map(|i| format!("{} {:02} 2023", ["Jan", "Feb", "Aug", "Dec"][i % 4], 1 + i % 28)).collect();
    let refs: Vec<&str> = dates.iter().map(|s| s.as_str()).collect();

    let mut grid: Grid = vec![
        vec!["Quarterly Report".into(), "".into(), "".into()],
        vec!["".into(), "".into(), "".into()],
        vec!["name".into(), "year".into(), "sales".into()],
    ];
    for i in 0..100 {
        grid.push(vec![format!("item{i}"), format!("{}", 2014 + i % 3), format!("{}", i * 7)]);
    }

    let mut group = c.benchmark_group("transform");
    group.bench_function("mine_pattern_200_values", |b| b.iter(|| mine_pattern(&refs)));
    group.bench_function("discover_program_100_rows", |b| b.iter(|| discover_program(&grid, 3, 8)));
    group.finish();
}

llmdm_rt::bench_main!("transform_bench", None, bench_transform);
