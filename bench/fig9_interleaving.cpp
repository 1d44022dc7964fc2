// Reproduces Fig. 9 of the paper: Kernel Interleaving.
//  (a) speedup of interleaving two {H2D copy, kernel, D2H copy} programs as
//      a function of kernel length, with the copy time fixed at 13.44 ms;
//      expected model: T_total = 2 Tm + N * max(Tm, Tk)        (Eq. 7)
//  (b) speedup as a function of the number of interleaved programs with
//      Tk = Tm; expected model: speedup = 3N / (2 + N)          (Eq. 8)

#include <iostream>

#include "fig9_interleaving.hpp"
#include "util/table.hpp"

int main() {
  using namespace sigvp;
  const double tm_us = us_from_ms(fig9::kTmMs);

  std::cout << "== Fig. 9(a): Kernel Interleaving speedup vs kernel length "
            << "(2 programs, Tm = 13.44 ms) ==\n\n";
  TablePrinter a({"Kernel time (ms)", "Speedup (measured)", "Speedup (expected, Eq.7)"});
  for (double tk_ms : {2.0, 5.0, 10.0, 13.44, 20.0, 40.0, 60.0, 80.0, 100.0}) {
    const double tk_us = us_from_ms(tk_ms);
    a.add_row({fmt_ms(tk_ms), fmt_ratio(fig9::speedup(2, tk_us, tm_us)),
               fmt_ratio(fig9::expected_speedup(2, tk_us, tm_us))});
  }
  a.print(std::cout);
  std::cout << "\n(The peak sits near Tk = Tm = 13.44 ms — the latency-hiding "
            << "sweet spot the paper highlights.)\n";

  std::cout << "\n== Fig. 9(b): speedup vs number of interleaved programs "
            << "(Tk = Tm) ==\n\n";
  TablePrinter b({"Programs", "Speedup (measured)", "Expected 3N/(2+N) (Eq.8)"});
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u}) {
    b.add_row({fmt_int(static_cast<long long>(n)), fmt_ratio(fig9::speedup(n, tm_us, tm_us)),
               fmt_ratio(3.0 * static_cast<double>(n) / (2.0 + static_cast<double>(n)))});
  }
  b.print(std::cout);
  std::cout << "\n(Approaches 3x for many programs, as in the paper.)\n";
  return 0;
}
