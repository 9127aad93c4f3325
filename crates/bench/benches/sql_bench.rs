//! SQL parse + execute throughput on the concert fixture.

use llmdm_rt::bench::Criterion;
use llmdm_nlq::concert_domain;
use llmdm_sqlengine::parse_statement;

const SEED: u64 = 1;

fn bench_sql(c: &mut Criterion) {
    let db = concert_domain(SEED);
    let queries = [
        "SELECT name FROM stadium WHERE capacity > 30000",
        "SELECT s.name, COUNT(*) FROM stadium s JOIN concert c ON s.stadium_id = c.stadium_id \
         GROUP BY s.name ORDER BY COUNT(*) DESC LIMIT 3",
        "SELECT name FROM stadium WHERE stadium_id IN \
         (SELECT stadium_id FROM concert WHERE year = 2014) \
         AND stadium_id NOT IN (SELECT stadium_id FROM sports_meeting WHERE year = 2015)",
    ];
    let mut group = c.benchmark_group("sqlengine");
    group.bench_function("parse_simple", |b| b.iter(|| parse_statement(queries[0]).expect("parses")));
    group.bench_function("parse_complex", |b| b.iter(|| parse_statement(queries[2]).expect("parses")));
    for (name, q) in [("exec_filter", queries[0]), ("exec_join_group", queries[1]), ("exec_setops", queries[2])] {
        let stmt = parse_statement(q).expect("parses");
        let select = match stmt {
            llmdm_sqlengine::Statement::Select(s) => s,
            _ => unreachable!(),
        };
        group.bench_function(name, |b| {
            b.iter(|| llmdm_sqlengine::exec::execute_select(&db, &select).expect("executes"))
        });
    }
    group.finish();
}

llmdm_rt::bench_main!("sql_bench", Some(SEED), bench_sql);
