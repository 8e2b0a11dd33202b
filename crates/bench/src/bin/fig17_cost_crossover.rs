//! Fig 17: hourly tenant cost of InfiniCache vs one cache.r5.24xlarge
//! ElastiCache node, as a function of the object access rate — the
//! small-object-workload discussion of §6.

use ic_analytics::CostModel;
use ic_bench::{banner, print_table, vs_paper};
use ic_common::pricing::{Pricing, CACHE_R5_24XLARGE};

fn main() {
    banner(
        "Fig 17",
        "hourly $ cost vs access rate; ElastiCache crossover",
    );
    let model = CostModel::paper_production();
    let chunks = 12; // RS(10+2)
    let invocation_ms = 100.0;

    let rows: Vec<Vec<String>> = (0..=8)
        .map(|i| {
            let rate = i as f64 * 40_000.0;
            let ic = model.hourly_cost(rate, chunks, invocation_ms);
            vec![
                format!("{:.0}K", rate / 1000.0),
                format!("${ic:.2}"),
                format!("${:.2}", CACHE_R5_24XLARGE.hourly_price),
            ]
        })
        .collect();
    print_table(
        "hourly cost sweep",
        &["req/hour", "InfiniCache", "ElastiCache"],
        &rows,
    );

    let crossover = model
        .crossover_rate(CACHE_R5_24XLARGE.hourly_price, chunks, invocation_ms)
        .expect("fixed cost below ElastiCache");
    println!(
        "\ncrossover: {} — i.e. {:.0} req/s (paper: 86 req/s)",
        vs_paper(format!("{:.0} req/hour", crossover), "~312K req/hour"),
        crossover / 3600.0
    );

    // Sensitivity: the paper's literal "$0.02 per 1M invocations".
    let mut literal = model;
    literal.pricing = Pricing::PAPER_LITERAL;
    let alt = literal
        .crossover_rate(CACHE_R5_24XLARGE.hourly_price, chunks, invocation_ms)
        .unwrap();
    println!(
        "sensitivity: with the paper's literal $0.02/1M request fee the crossover \
         moves to {:.0} req/hour — further evidence the intended constant is $0.20/1M",
        alt
    );
}
