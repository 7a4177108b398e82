// bench_figures: the paper's Figs. 2 and 5–8, Table I and the Section IV
// ablations on the simulated machine, from the spec table in figures.cpp.
//   bench_figures --figure=fig5            one figure at proxy scale
//   bench_figures --figure=all --smoke     every figure at the golden's sizes

#include <iostream>

#include "figures.hpp"

int main(int argc, char** argv) {
    return katric::bench::figures_main(argc, argv, std::cout, std::cerr);
}
