//! Regenerates **Table IV** (prototype system evaluation) and **Table V**
//! (per-resident convenience error).
//!
//! Deploys the full controller stack — planner, firewall, device registry,
//! energy meter — for a simulated week with a three-person family, each
//! resident contributing ~3 meta-rules and a 165 kWh weekly limit, with
//! environmental parameters from the weather-API substitute (paper §III-F).
//!
//! Expected shape (paper): weekly F_E comfortably under the 165 kWh limit
//! (paper: 130.64 kWh), aggregate F_CE a few percent (paper: 2.35 %), and
//! per-resident F_CE below ~1 % and near-equal across residents.

use imcf_controller::prototype::{run_prototype, PrototypeConfig};

fn main() -> Result<(), imcf_controller::ControllerError> {
    let config = PrototypeConfig::default();
    let out = run_prototype(config)?;

    println!(
        "=== Table IV: prototype week (limit {} kWh) ===\n",
        config.weekly_budget_kwh
    );
    println!(
        "{:<14} | {:>24} | {:>24}",
        "Time Duration", "Energy Consumption (F_E)", "Convenience Error (F_CE)"
    );
    println!(
        "{:<14} | {:>20.2} kWh | {:>22.2} %",
        "Week", out.fe_kwh, out.fce_percent
    );
    println!(
        "\nOrchestration: {} ticks, {} commands delivered, {} blocked, {:.3} s wall clock",
        out.ticks, out.delivered, out.blocked, out.ft_seconds
    );

    println!("\n=== Table V: individual resident convenience error ===\n");
    println!("{:<10} | {:>24}", "Resident", "Convenience Error (F_CE)");
    for (owner, fce) in &out.per_resident {
        println!("{:<10} | {:>22.4} %", owner, fce);
    }

    // Seasonal sensitivity (extension): the same family in July.
    let summer = run_prototype(PrototypeConfig { month: 7, ..config })?;
    println!(
        "\nSeasonal check — same week in July: F_E {:.2} kWh, F_CE {:.2} % (winter week: {:.2} kWh)",
        summer.fe_kwh, summer.fce_percent, out.fe_kwh
    );
    Ok(())
}
