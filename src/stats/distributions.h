#ifndef MESA_STATS_DISTRIBUTIONS_H_
#define MESA_STATS_DISTRIBUTIONS_H_

namespace mesa {

/// Natural log of the gamma function (Lanczos approximation).
double LogGamma(double x);

/// Regularised incomplete gamma P(a, x) = γ(a,x)/Γ(a), a > 0, x >= 0.
double RegularizedGammaP(double a, double x);

/// Regularised incomplete beta I_x(a, b), 0 <= x <= 1, a,b > 0.
double RegularizedIncompleteBeta(double a, double b, double x);

/// Two-sided p-value for a t statistic with `df` degrees of freedom.
double StudentTPValueTwoSided(double t, double df);

/// Chi-squared upper-tail probability P(X >= x) with `df` degrees of
/// freedom (the p-value of a chi-squared test statistic).
double ChiSquaredSf(double x, double df);

}  // namespace mesa

#endif  // MESA_STATS_DISTRIBUTIONS_H_
