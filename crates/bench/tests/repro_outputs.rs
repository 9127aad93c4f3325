//! The ten `repro_*` binaries print the paper's tables and figures, and
//! each prints the same bytes on every run at a given seed. Each is run
//! here at its default seed (42) and the FNV-1a digest of its stdout is
//! held to the one pinned below, so a change that moves any printed
//! number, row or label fails this test. A change that means to move an
//! output re-pins its digest and says why.

use std::process::Command;

/// Run `bin` with no arguments and digest its stdout.
fn stdout_digest(bin: &str) -> u64 {
    let out = Command::new(bin).output().unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    assert!(out.status.success(), "{bin} failed: {}", String::from_utf8_lossy(&out.stderr));
    llmdm_rt::hash::fnv1a(&out.stdout)
}

macro_rules! pinned {
    ($($name:ident = $digest:literal;)*) => {$(
        #[test]
        fn $name() {
            let bin = env!(concat!("CARGO_BIN_EXE_", stringify!($name)));
            assert_eq!(stdout_digest(bin), $digest, "{} printed different bytes", stringify!($name));
        }
    )*};
}

pinned! {
    repro_table1 = 0xaa0f_0497_5123_9154;
    repro_table2 = 0xd532_60c6_ebf0_6675;
    repro_table3 = 0x0285_cc65_85bd_d885;
    repro_fig1 = 0x0393_acae_8003_9233;
    repro_fig2 = 0xcab2_7c9d_67c4_5e84;
    repro_fig3 = 0x3c96_20d3_e048_b042;
    repro_fig4 = 0x61ec_dce6_5df5_c8e0;
    repro_fig5 = 0x9f73_2b4e_d757_5eed;
    repro_fig6 = 0xce84_7a04_e6d5_c3d6;
    repro_fig7 = 0xb6df_7419_018b_8c9a;
}
