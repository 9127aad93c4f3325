//! Healthcare scenario (§II-B, §II-D, §III-D of the paper): EMR data
//! arrives as XML diagnostic reports and JSON lab feeds; it must be
//! relationalized, imputed, explored as a multi-modal lake, and any
//! learning on it must be privacy-preserving.
//!
//! Run with `cargo run -p llmdm --example healthcare_pipeline`.

use llmdm::datagen::Imputer;
use llmdm::explore::DataLake;
use llmdm::model::ModelZoo;
use llmdm::privacy::dp::PrivacyAccountant;
use llmdm::privacy::{membership_attack, train_dpsgd, DpSgdConfig};
use llmdm::rt::json::Json;
use llmdm::sql::Value;
use llmdm::transform::{json_to_tables, xml_to_table, XmlNode};
use llmdm::vecdb::AttrValue;

fn main() {
    let zoo = ModelZoo::standard(7);

    // --- Transformation: XML diagnostic reports → relational -----------
    let xml = XmlNode::parse(
        r#"<reports>
             <report id="1"><patient>alice</patient><unit>cardio</unit><finding>arrhythmia</finding></report>
             <report id="2"><patient>bob</patient><unit>neuro</unit><finding>migraine</finding></report>
             <report id="3"><patient>chen</patient><unit>cardio</unit><finding>murmur</finding></report>
           </reports>"#,
    )
    .expect("hospital XML export parses");
    let reports = xml_to_table(&xml).expect("relationalizes");
    println!("XML → table `{}` with {} rows", reports.name, reports.rows.len());

    // --- Transformation: JSON lab feed → relational (+ child table) ----
    let labs_json = Json::parse(
        r#"[{"patient": "alice", "age": 63, "labs": [{"test": "hb", "value": 11.2}, {"test": "bp", "value": 151.0}]},
            {"patient": "bob", "age": 48, "labs": [{"test": "hb", "value": 13.9}]},
            {"patient": "chen", "age": 71, "labs": [{"test": "bp", "value": 162.0}]},
            {"patient": "dara", "age": 55}]"#,
    )
    .expect("lab feed parses");
    let lab_tables = json_to_tables("patients", &labs_json).expect("relationalizes");
    for t in &lab_tables {
        println!("JSON → table `{}` with {} rows", t.name, t.rows.len());
    }

    // --- Generation: impute a missing unit field with few-shot ICL -----
    let mut units = reports.clone();
    units.rows[2][units.schema.index_of("unit").expect("unit col")] = Value::Null;
    let imputer = Imputer::new(zoo.large());
    let filled =
        imputer.fill_nulls(&units, units.schema.index_of("unit").expect("unit col")).expect("imputes");
    println!(
        "imputed missing unit for row 3: {}",
        filled.rows[2][filled.schema.index_of("unit").expect("unit col")]
    );

    // --- Exploration: one lake over reports, labs, and imaging ---------
    let mut lake = DataLake::new(7);
    lake.add_table(&reports, vec![("entity_type".to_string(), AttrValue::from("report"))])
        .expect("index table");
    for t in &lab_tables {
        lake.add_table(t, vec![("entity_type".to_string(), AttrValue::from("labs"))])
            .expect("index table");
    }
    lake.add_image(
        "chest x-ray 0031",
        "frontal chest radiograph of patient alice",
        &["cardiomegaly", "clear lungs"],
        vec![("entity_type".to_string(), AttrValue::from("imaging"))],
    )
    .expect("index image");
    let hits = lake.search("cardiac findings for alice", 3).expect("semantic search");
    println!("\nlake search 'cardiac findings for alice':");
    for h in &hits {
        println!("  [{:?}] {} (score {:.2})", h.item.modality, h.item.title, h.score);
    }

    // --- Privacy: train a readmission model under DP-SGD ---------------
    // A properly shuffled synthetic cohort (age/vitals features → risk
    // label); the members and the held-out non-members come from the same
    // distribution, as a real MIA evaluation requires.
    let cohort = llmdm::privacy::logreg::synthetic(400, 4, 0.1, 7);
    let (train, holdout) = cohort.split(0.5);
    let mut accountant = PrivacyAccountant::new();
    let model = train_dpsgd(
        &train,
        DpSgdConfig { noise_multiplier: 1.0, epochs: 10, ..Default::default() },
        &mut accountant,
    );
    let (eps, delta) = accountant.advanced_composition(1e-5);
    let attack = membership_attack(&model, &train, &holdout);
    println!(
        "\nDP-SGD readmission model: holdout accuracy {:.2}, \
         (ε, δ) ≈ ({eps:.0}, {delta:.0e}) over {} noisy steps, \
         membership-inference advantage {:.2} (≈0 = no leakage)",
        model.accuracy(&holdout),
        accountant.len(),
        attack.advantage
    );
}
