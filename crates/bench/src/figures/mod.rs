//! One module per table / figure of the paper's evaluation (§5).

pub mod escrow;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod load;
pub mod nemesis;
pub mod table1;
